package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"llm4eda/eda"
)

// jobStatus is the part of the job wire form (submit reply and SSE end
// frame) the benchmark reads.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	Phases []struct {
		Phase string  `json:"phase"`
		MS    float64 `json:"ms"`
		N     int     `json:"n"`
	} `json:"phases"`
	Report json.RawMessage `json:"report"`
}

// phase returns the named phase's duration and recording count.
func (st *jobStatus) phase(name string) (float64, int) {
	for _, p := range st.Phases {
		if p.Phase == name {
			return p.MS, p.N
		}
	}
	return 0, 0
}

// outcome is one served job as the client saw it.
type outcome struct {
	idx  int
	hot  int // hot-spec index, -1 for a unique spec
	spec eda.Spec

	state    string
	cached   bool
	rejected bool  // 429: refused by backpressure
	err      error // transport or protocol failure

	t0, tReply, tEnd time.Time // submit sent, submit reply read, terminal seen
	events           int       // SSE event frames received (end frame excluded)
	candidates       int       // of which scored candidates
	status           jobStatus
}

func (o *outcome) latency() time.Duration { return o.tEnd.Sub(o.t0) }
func (o *outcome) submit() time.Duration  { return o.tReply.Sub(o.t0) }

// unattributedMS is client latency minus the client-timed submit and the
// server-reported queue wait, pipeline and report-store write.
func (o *outcome) unattributedMS() float64 {
	qw, _ := o.status.phase("queue_wait")
	pl, _ := o.status.phase("pipeline")
	sw, _ := o.status.phase("store_write")
	return ms(o.latency()) - ms(o.submit()) - qw - pl - sw
}

// loadClient submits one job at a time over a single keep-alive
// connection and waits for each to finish (a closed loop).
type loadClient struct {
	base string
	http *http.Client
}

// run submits spec and returns once the job is terminal: at the submit
// reply when the report store answered it, otherwise at the SSE end frame.
func (c *loadClient) run(o *outcome) {
	body, err := json.Marshal(o.spec)
	if err != nil {
		o.err = err
		return
	}
	o.t0 = time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.tReply = time.Now()
	switch {
	case err != nil:
		o.err = err
		return
	case resp.StatusCode == http.StatusTooManyRequests:
		o.rejected = true
		return
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		o.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(reply))
		return
	}
	if err := json.Unmarshal(reply, &o.status); err != nil {
		o.err = fmt.Errorf("submit reply: %w", err)
		return
	}
	if terminal(o.status.State) {
		o.tEnd = o.tReply
		o.state, o.cached = o.status.State, o.status.Cached
		return
	}
	if err := c.await(o); err != nil {
		o.err = err
		return
	}
	o.state, o.cached = o.status.State, o.status.Cached
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// await reads the job's event stream to its end frame.
func (c *loadClient) await(o *outcome) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + o.status.ID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return fmt.Errorf("events: stream ended before the end frame: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && event == "end":
			o.tEnd = time.Now()
			o.status = jobStatus{}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &o.status); err != nil {
				return fmt.Errorf("end frame: %w", err)
			}
			_, _ = io.Copy(io.Discard, rd) // read to EOF so the connection is reused
			return nil
		case line == "" && event != "":
			o.events++
			if event == "candidate" {
				o.candidates++
			}
			event = ""
		}
	}
}

// loop is one closed-loop drive: every client submits its next job as
// soon as its previous one is terminal. Clients stop starting jobs once
// the window has passed or maxJobs have started (a zero bound is no
// bound); jobs in flight then finish and count.
type loop struct {
	window  time.Duration
	maxJobs int
	next    func(i int) (eda.Spec, int) // the spec of job i, and its hot index
	tracer  *tracer
	onDone  func(done int) // called after each terminal job with the count so far
}

// run drives the clients and returns every outcome in submission order
// and the wall time from the first submit to the last terminal job.
func (l loop) run(clients []*loadClient) ([]*outcome, time.Duration) {
	var (
		mu           sync.Mutex
		outs         []*outcome
		done         int
		wg           sync.WaitGroup
		start        = time.Now()
		deadline     = start.Add(l.window)
		startAnother = func() *outcome {
			mu.Lock()
			defer mu.Unlock()
			if l.window > 0 && !time.Now().Before(deadline) || l.maxJobs > 0 && len(outs) >= l.maxJobs {
				return nil
			}
			o := &outcome{idx: len(outs)}
			outs = append(outs, o)
			return o
		}
	)
	for _, c := range clients {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			for o := startAnother(); o != nil; o = startAnother() {
				o.spec, o.hot = l.next(o.idx)
				c.run(o)
				traceJob(l.tracer, o)
				if l.onDone != nil {
					mu.Lock()
					done++
					n := done
					mu.Unlock()
					l.onDone(n)
				}
			}
		}(c)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// traceJob records one finished job as a span tree: the client-timed job
// and submit spans, and the server-reported phases placed in flow order
// after the submit. The job span's self time is the unattributed time.
func traceJob(tr *tracer, o *outcome) {
	if tr == nil || o.err != nil || o.rejected {
		return
	}
	id := o.status.ID
	root := tr.add(0, "job", id, o.t0, o.tEnd, false)
	tr.add(root, "edaserver.submit", id, o.t0, o.tReply, false)
	at := o.tReply
	place := func(parent int, name, phase string) int {
		d, n := o.status.phase(phase)
		if n == 0 {
			return 0
		}
		end := at.Add(time.Duration(d * 1e6))
		sid := tr.add(parent, name, id, at, end, true)
		at = end
		return sid
	}
	place(root, "edaserver.queue_wait", "queue_wait")
	pipeStart := at
	if pl := place(root, "eda.pipeline", "pipeline"); pl != 0 {
		pipeEnd := at
		at = pipeStart
		place(pl, "vlint.lint_screen", "lint_screen")
		place(pl, "verilog.compile", "compile")
		place(pl, "verilog.sim", "sim")
		at = pipeEnd
	}
	place(root, "edaserver.store_write", "store_write")
}

package main

import (
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one job share the
// job id; Parent is the id of the enclosing span (0 for a root).
// Synthetic spans are not timed by the benchmark: they place a duration
// the server reported (a job phase) after the client-timed submit, so
// that self times can be computed over one tree.
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"`
	Name      string  `json:"name"`
	Job       string  `json:"job,omitempty"`
	StartUS   float64 `json:"start_us"`
	EndUS     float64 `json:"end_us"`
	Synthetic bool    `json:"synthetic,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run measures without tracing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records one span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent int, name, job string, start, end time.Time, synthetic bool) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Job: job,
		StartUS:   float64(start.Sub(t.origin)) / 1e3,
		EndUS:     float64(end.Sub(t.origin)) / 1e3,
		Synthetic: synthetic,
	})
	return id
}

// selfNames are the span names whose self time the traced run reports.
var selfNames = []string{
	"job", "edaserver.submit", "edaserver.queue_wait", "eda.pipeline",
	"vlint.lint_screen", "verilog.compile", "verilog.sim", "edaserver.store_write",
	"eda.run", "slt.eval",
}

// selfMS returns, for each span name, the summed self time (duration
// minus the durations of its children) per root span, in milliseconds.
// Summed over all names it equals the mean root-span duration.
func (t *tracer) selfMS() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]float64, len(t.spans)+1)
	roots := 0
	for _, s := range t.spans {
		self[s.ID] += s.EndUS - s.StartUS
		if s.Parent == 0 {
			roots++
		} else {
			self[s.Parent] -= s.EndUS - s.StartUS
		}
	}
	for _, s := range t.spans {
		out[s.Name] += self[s.ID] / 1e3
	}
	for name := range out {
		out[name] /= float64(max(roots, 1))
	}
	return out
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

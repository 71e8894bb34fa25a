package eda

import (
	"fmt"
	"io"
	"sync"

	"llm4eda/internal/core"
)

// Event is one progress report streamed from a run to its Sink; Sink
// receives them (concurrently — batch evaluation emits from workers).
// Both are aliases of the core types the frameworks emit, so a Sink
// written against this package works at every layer.
type (
	Event     = core.Event
	EventKind = core.EventKind
	Sink      = core.Sink
	// SinkFunc adapts a function to the Sink interface.
	SinkFunc = core.SinkFunc
)

// Event kinds, re-exported from core.
const (
	EventRunStart   = core.EventRunStart
	EventRunEnd     = core.EventRunEnd
	EventPhaseStart = core.EventPhaseStart
	EventPhaseEnd   = core.EventPhaseEnd
	EventCandidate  = core.EventCandidate
	EventLLMCall    = core.EventLLMCall
	EventNote       = core.EventNote
)

// progressPrinter renders the event stream as indented progress lines.
type progressPrinter struct {
	mu sync.Mutex
	w  io.Writer
	// verbose prints every candidate and LLM call; terse mode keeps
	// run/phase boundaries and notes only.
	verbose bool
}

// ProgressPrinter returns a Sink that renders events to w as one-line
// progress updates — the canonical event consumer the examples and the
// CLI share. With verbose=false only run/phase boundaries and notes
// print; verbose=true adds every scored candidate and model call.
func ProgressPrinter(w io.Writer, verbose bool) Sink {
	return &progressPrinter{w: w, verbose: verbose}
}

func (p *progressPrinter) Emit(ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Kind {
	case EventRunStart:
		fmt.Fprintf(p.w, "[%s] run start (%s)\n", ev.Framework, ev.Detail)
	case EventRunEnd:
		status := "done"
		if !ev.OK {
			status = "done (not solved)"
		}
		fmt.Fprintf(p.w, "[%s] %s: %s\n", ev.Framework, status, ev.Detail)
	case EventPhaseStart:
		fmt.Fprintf(p.w, "[%s] %s %s begin\n", ev.Framework, ev.Phase, seqOf(ev))
	case EventPhaseEnd:
		status := "ok"
		if !ev.OK {
			status = "FAIL"
		}
		fmt.Fprintf(p.w, "[%s] %s %s %s %s\n", ev.Framework, ev.Phase, seqOf(ev), status, ev.Detail)
	case EventCandidate:
		if p.verbose {
			fmt.Fprintf(p.w, "[%s] candidate %s score=%.3f ok=%v %s\n",
				ev.Framework, seqOf(ev), ev.Score, ev.OK, ev.Detail)
		}
	case EventLLMCall:
		if p.verbose {
			fmt.Fprintf(p.w, "[%s] llm call %s (%s) tokens=%d/%d\n",
				ev.Framework, seqOf(ev), ev.Phase, ev.TokensIn, ev.TokensOut)
		}
	case EventNote:
		fmt.Fprintf(p.w, "[%s] %s\n", ev.Framework, ev.Detail)
	}
}

func seqOf(ev Event) string {
	switch {
	case ev.Total > 0:
		return fmt.Sprintf("%d/%d", ev.Seq, ev.Total)
	case ev.Seq > 0:
		return fmt.Sprintf("%d", ev.Seq)
	default:
		return "-"
	}
}

// CountingSink tallies events by kind; tests and dashboards use it to
// assert on a run's event traffic without buffering the stream.
type CountingSink struct {
	mu     sync.Mutex
	counts map[EventKind]int
}

// NewCountingSink returns an empty counter.
func NewCountingSink() *CountingSink {
	return &CountingSink{counts: map[EventKind]int{}}
}

// Emit tallies one event.
func (c *CountingSink) Emit(ev Event) {
	c.mu.Lock()
	c.counts[ev.Kind]++
	c.mu.Unlock()
}

// Count returns how many events of kind were emitted.
func (c *CountingSink) Count(kind EventKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[kind]
}

// Total returns the total number of events seen.
func (c *CountingSink) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.counts {
		n += v
	}
	return n
}

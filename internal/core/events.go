package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
)

// EventKind classifies run events.
type EventKind int

// Event kinds emitted by the frameworks and the engine.
const (
	// EventRunStart/EventRunEnd bracket one front-door run.
	EventRunStart EventKind = iota + 1
	EventRunEnd
	// EventPhaseStart/EventPhaseEnd bracket a framework phase (a repair
	// stage, an autochip round, an agent flow stage, ...).
	EventPhaseStart
	EventPhaseEnd
	// EventCandidate reports one scored candidate (design, snippet,
	// kernel, input vector).
	EventCandidate
	// EventLLMCall reports one model invocation with its token counts.
	EventLLMCall
	// EventNote carries free-form progress text.
	EventNote
)

// String names the kind for progress printers.
func (k EventKind) String() string {
	switch k {
	case EventRunStart:
		return "run-start"
	case EventRunEnd:
		return "run-end"
	case EventPhaseStart:
		return "phase-start"
	case EventPhaseEnd:
		return "phase-end"
	case EventCandidate:
		return "candidate"
	case EventLLMCall:
		return "llm-call"
	case EventNote:
		return "note"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// KindFromString inverts String for the canonical kinds; unknown names
// map to 0 (an invalid kind) with ok=false.
func KindFromString(s string) (EventKind, bool) {
	for k := EventRunStart; k <= EventNote; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// quotedKinds holds each canonical kind's name as a JSON string.
var quotedKinds = func() (q [EventNote + 1][]byte) {
	for k := EventRunStart; k <= EventNote; k++ {
		b, _ := json.Marshal(k.String()) // a string always encodes
		q[k] = slices.Clip(b)
	}
	return q
}()

// MarshalJSON encodes the kind as its canonical name, so an event stream
// on the wire reads "run-start", not an ordinal that would silently shift
// if kinds were ever reordered. A canonical kind's name is encoded once,
// at start-up; the returned slice is shared and must not be modified.
func (k EventKind) MarshalJSON() ([]byte, error) {
	if k >= EventRunStart && k <= EventNote {
		return quotedKinds[k], nil
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a canonical kind name (the eda/client package
// round-trips server-sent events through this).
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	kind, ok := KindFromString(s)
	if !ok {
		return fmt.Errorf("core: unknown event kind %q", s)
	}
	*k = kind
	return nil
}

// Event is one progress report flowing from a run to its Sink. Fields
// beyond Kind/Framework are kind-specific; unused ones are zero. The json
// tags fix the wire form the eda service layer streams as server-sent
// events.
type Event struct {
	Kind      EventKind `json:"kind"`
	Framework string    `json:"framework,omitempty"`
	// Phase names the framework phase (EventPhase*) or the model task
	// (EventLLMCall).
	Phase string `json:"phase,omitempty"`
	// Seq/Total position the event within its loop (candidate i of n,
	// round r of d); Total may be 0 when open-ended.
	Seq   int `json:"seq,omitempty"`
	Total int `json:"total,omitempty"`
	// Score is the candidate's scalar quality (pass fraction, watts, ...).
	Score float64 `json:"score,omitempty"`
	// OK marks phase/candidate success.
	OK bool `json:"ok,omitempty"`
	// Detail carries free-form context (verdicts, tool feedback heads).
	Detail string `json:"detail,omitempty"`
	// TokensIn/TokensOut report model usage (EventLLMCall).
	TokensIn  int `json:"tokens_in,omitempty"`
	TokensOut int `json:"tokens_out,omitempty"`
}

// Sink receives run events. Implementations must be safe for concurrent
// use: batch evaluation emits from worker goroutines.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit calls f.
func (f SinkFunc) Emit(ev Event) { f(ev) }

// nopSink drops events; SinkOf returns it when the context carries none,
// so emit sites never branch.
type nopSink struct{}

func (nopSink) Emit(Event) {}

type sinkKey struct{}

// WithSink returns a context that carries sink; every framework run under
// that context streams its events there.
func WithSink(ctx context.Context, sink Sink) context.Context {
	if sink == nil {
		return ctx
	}
	return context.WithValue(ctx, sinkKey{}, sink)
}

// SinkOf returns the context's sink, or a no-op sink when none is set.
func SinkOf(ctx context.Context) Sink {
	if s, ok := ctx.Value(sinkKey{}).(Sink); ok && s != nil {
		return s
	}
	return nopSink{}
}

// Emit sends one event to the context's sink (a no-op without one).
func Emit(ctx context.Context, ev Event) {
	SinkOf(ctx).Emit(ev)
}

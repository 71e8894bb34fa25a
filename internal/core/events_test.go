package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestSinkContextPlumbing(t *testing.T) {
	var got []Event
	ctx := WithSink(context.Background(), SinkFunc(func(ev Event) {
		got = append(got, ev)
	}))
	Emit(ctx, Event{Kind: EventPhaseStart, Framework: "x"})
	SinkOf(ctx).Emit(Event{Kind: EventPhaseEnd, Framework: "x"})
	if len(got) != 2 || got[0].Kind != EventPhaseStart || got[1].Kind != EventPhaseEnd {
		t.Fatalf("events = %+v", got)
	}
}

func TestSinkOfWithoutSinkIsNoop(t *testing.T) {
	// Must not panic and must swallow the event.
	Emit(context.Background(), Event{Kind: EventNote})
	if s := SinkOf(context.Background()); s == nil {
		t.Fatal("SinkOf returned nil")
	}
	// Nil sink attaches nothing.
	ctx := WithSink(context.Background(), nil)
	Emit(ctx, Event{Kind: EventNote})
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventRunStart, EventRunEnd, EventPhaseStart, EventPhaseEnd,
		EventCandidate, EventLLMCall, EventNote}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
	if EventKind(99).String() != "event(99)" {
		t.Errorf("unknown kind renders %q", EventKind(99).String())
	}
}

// TestEventKindMarshalMatchesName checks the precomputed names against
// encoding each kind's String, for every canonical kind and for kinds
// outside them.
func TestEventKindMarshalMatchesName(t *testing.T) {
	for k := EventKind(-1); k <= EventNote+1; k++ {
		got, err := k.MarshalJSON()
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		want, _ := json.Marshal(k.String())
		if !bytes.Equal(got, want) {
			t.Errorf("kind %d encodes as %s, want %s", int(k), got, want)
		}
	}
}

func TestRunSpecValidate(t *testing.T) {
	good := []RunSpec{
		{},
		{Seed: 5, Tier: "small", Workers: 4, Deadline: time.Second},
		{Tier: "frontier"},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("valid spec %+v rejected: %v", s, err)
		}
	}
	bad := []RunSpec{
		{Workers: -1},
		{Deadline: -time.Second},
		{Tier: "gpt9"},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid spec %+v accepted", s)
		}
	}
	d := RunSpec{}.WithDefaults()
	if d.Seed != 1 || d.Tier != TierNameFrontier || d.Workers != 0 || d.Deadline != 0 {
		t.Errorf("defaults = %+v", d)
	}
	// Defaults preserve explicit values.
	e := RunSpec{Seed: 9, Tier: "small", Workers: 2, Deadline: time.Minute}.WithDefaults()
	if e.Seed != 9 || e.Tier != "small" || e.Workers != 2 || e.Deadline != time.Minute {
		t.Errorf("explicit values clobbered: %+v", e)
	}
}

// TestEventJSONRoundTrip pins the wire form the service layer streams:
// kinds travel as canonical names and every field survives the trip.
func TestEventJSONRoundTrip(t *testing.T) {
	for k := EventRunStart; k <= EventNote; k++ {
		ev := Event{Kind: k, Framework: "fw", Phase: "p", Seq: 2, Total: 5,
			Score: 0.5, OK: true, Detail: "d", TokensIn: 3, TokensOut: 4}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !bytes.Contains(b, []byte(`"kind":"`+k.String()+`"`)) {
			t.Errorf("%v: kind not encoded by name: %s", k, b)
		}
		var back Event
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if back != ev {
			t.Errorf("round trip lost fields: %+v vs %+v", back, ev)
		}
	}
	if _, ok := KindFromString("run-start"); !ok {
		t.Error("KindFromString rejects a canonical name")
	}
	if _, ok := KindFromString("nope"); ok {
		t.Error("KindFromString accepts an unknown name")
	}
	var k EventKind
	if err := json.Unmarshal([]byte(`"bogus"`), &k); err == nil {
		t.Error("unknown kind name decoded without error")
	}
}

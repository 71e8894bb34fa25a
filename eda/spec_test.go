package eda_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"llm4eda/eda"
)

// TestSpecParam covers the knob accessor directly: set, unset and
// nil-map paths.
func TestSpecParam(t *testing.T) {
	var zero eda.Spec
	if got := zero.Param("k", 7); got != 7 {
		t.Errorf("nil params: Param = %g, want default 7", got)
	}
	s := eda.Spec{Params: map[string]float64{"k": 3, "temperature": 0}}
	if got := s.Param("k", 7); got != 3 {
		t.Errorf("set param: Param = %g, want 3", got)
	}
	// An explicitly-set zero wins over the default: 0 is a real value
	// (temperature=0 means greedy sampling, not "use the default").
	if got := s.Param("temperature", 0.8); got != 0 {
		t.Errorf("explicit zero param: Param = %g, want 0", got)
	}
	if got := s.Param("depth", 4); got != 4 {
		t.Errorf("missing param: Param = %g, want default 4", got)
	}
}

// TestSpecValidateDirect drives Spec.Validate (not eda.Run, which the
// older TestValidation goes through) over the error paths the server
// front end depends on rejecting before anything reaches the job queue.
func TestSpecValidateDirect(t *testing.T) {
	cases := []struct {
		name string
		spec eda.Spec
		want string // "" = must validate
	}{
		{"valid minimal", eda.Spec{Framework: "vrank"}, ""},
		{"valid with payload", eda.Spec{Framework: "vrank", Problem: "mux4",
			Params: map[string]float64{"k": 3}}, ""},
		{"empty framework", eda.Spec{}, "Framework is required"},
		{"unknown framework", eda.Spec{Framework: "quantum"}, "unknown framework"},
		{"unknown param", eda.Spec{Framework: "vrank",
			Params: map[string]float64{"depth": 2}}, "does not take param"},
		{"bad tier", eda.Spec{Framework: "vrank",
			Run: eda.RunSpec{Tier: "gpt9"}}, "unknown tier"},
		{"negative workers", eda.Spec{Framework: "vrank",
			Run: eda.RunSpec{Workers: -2}}, "Workers"},
		{"negative deadline", eda.Spec{Framework: "vrank",
			Run: eda.RunSpec{Deadline: -time.Minute}}, "Deadline"},
		{"unknown problem", eda.Spec{Framework: "agent", Problem: "nonesuch"}, "unknown problem"},
		{"payload mismatch", eda.Spec{Framework: "slt", Problem: "adder4"}, "does not take a Problem"},
		{"kernel without source", eda.Spec{Framework: "hlstest", Kernel: "f"}, "Source is required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSpecValidateParamCaps: a param that sizes an allocation must be a
// whole number in [0, cap]; the cap itself is accepted and every value
// outside, NaN and the infinities included, names the param and range.
func TestSpecValidateParamCaps(t *testing.T) {
	caps := []struct {
		framework, param string
		cap              float64
	}{
		{"vrank", "k", 1024},
		{"autochip", "k", 1024},
		{"gp", "population", 4096},
		{"crosscheck", "vectors", 4096},
		{"xdebug", "vectors", 4096},
	}
	for _, c := range caps {
		spec := func(v float64) eda.Spec {
			return eda.Spec{Framework: c.framework, Params: map[string]float64{c.param: v}}
		}
		for _, v := range []float64{0, c.cap} {
			if err := spec(v).Validate(); err != nil {
				t.Errorf("%s %s=%g: %v, want nil", c.framework, c.param, v, err)
			}
		}
		for _, v := range []float64{-1, 2.5, 1e10, c.cap + 1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			err := spec(v).Validate()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.param)) ||
				!strings.Contains(err.Error(), fmt.Sprintf("[0, %g]", c.cap)) {
				t.Errorf("%s %s=%g: %v, want an out-of-range error naming the param and range", c.framework, c.param, v, err)
			}
		}
	}
}

// TestValidateInCustomRegistry pins the exported registry-scoped variant:
// a framework known only to a custom registry validates there and nowhere
// else.
func TestValidateInCustomRegistry(t *testing.T) {
	reg := eda.NewRegistry()
	if err := reg.Register(eda.Pipeline{
		Name: "custom",
		Run: func(ctx context.Context, spec eda.Spec) (*eda.Report, error) {
			return &eda.Report{OK: true, Summary: "ok"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	spec := eda.Spec{Framework: "custom"}
	if err := spec.ValidateIn(reg); err != nil {
		t.Errorf("ValidateIn(custom reg) = %v", err)
	}
	if err := spec.Validate(); err == nil {
		t.Error("default registry accepted a custom-only framework")
	}
}

// TestRegistryNormalize pins the canonical form the service layer
// content-addresses: defaults filled, pipeline tier default applied,
// idempotent.
func TestRegistryNormalize(t *testing.T) {
	reg := eda.DefaultRegistry()
	n := reg.Normalize(eda.Spec{Framework: "slt"})
	if n.Run.Seed != 1 || n.Run.Tier != "large" {
		t.Errorf("slt normalization = %+v, want seed 1 tier large", n.Run)
	}
	n2 := reg.Normalize(n)
	if !reflect.DeepEqual(n, n2) {
		t.Errorf("Normalize not idempotent: %+v vs %+v", n, n2)
	}
	if n := reg.Normalize(eda.Spec{Framework: "vrank", Run: eda.RunSpec{Tier: "Small", Seed: 9}}); n.Run.Tier != "small" || n.Run.Seed != 9 {
		t.Errorf("explicit envelope clobbered: %+v", n.Run)
	}
}

// TestConcurrentRunsShareRegistry is the race-freedom proof the server
// relies on: many eda.Run calls resolving pipelines in the one default
// registry, concurrently, must all succeed and stay deterministic
// (identical specs yield identical metrics). make test-race runs this
// package under the race detector.
func TestConcurrentRunsShareRegistry(t *testing.T) {
	specs := []eda.Spec{
		{Framework: "vrank", Problem: "mux4", Params: map[string]float64{"k": 3}},
		{Framework: "autochip", Problem: "and4", Params: map[string]float64{"k": 2, "depth": 2}},
	}
	const per = 4
	type outcome struct {
		spec    int
		metrics map[string]float64
		err     error
	}
	out := make([]outcome, per*len(specs))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			si := i % len(specs)
			report, err := eda.Run(context.Background(), specs[si])
			o := outcome{spec: si, err: err}
			if report != nil {
				o.metrics = report.Metrics
			}
			out[i] = o
		}(i)
	}
	wg.Wait()
	var want [2]map[string]float64
	for _, o := range out {
		if o.err != nil {
			t.Fatalf("concurrent run failed: %v", o.err)
		}
		if want[o.spec] == nil {
			want[o.spec] = o.metrics
			continue
		}
		if !reflect.DeepEqual(o.metrics, want[o.spec]) {
			t.Errorf("spec %d metrics diverged across concurrent runs: %v vs %v",
				o.spec, o.metrics, want[o.spec])
		}
	}
}

// TestReportJSONRoundTrip pins the shared wire format: metrics, spec
// echo, and a decodable detail payload survive (*Report).JSON.
func TestReportJSONRoundTrip(t *testing.T) {
	report, err := eda.Run(context.Background(), eda.Spec{
		Framework: "vrank", Problem: "mux4", Params: map[string]float64{"k": 3},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := report.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var wire struct {
		Framework string             `json:"framework"`
		OK        bool               `json:"ok"`
		Summary   string             `json:"summary"`
		Metrics   map[string]float64 `json:"metrics"`
		ElapsedMS float64            `json:"elapsed_ms"`
		Spec      eda.Spec           `json:"spec"`
		Detail    json.RawMessage    `json:"detail"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatalf("decode: %v\n%s", err, b)
	}
	if wire.Framework != "vrank" || !reflect.DeepEqual(wire.Metrics, report.Metrics) {
		t.Errorf("wire lost fields: %+v", wire)
	}
	if wire.Spec.Run.Seed != report.Spec.Run.Seed || wire.Spec.Problem != "mux4" {
		t.Errorf("wire spec mismatch: %+v", wire.Spec)
	}
	if len(wire.Detail) == 0 {
		t.Error("framework-native detail dropped from the wire")
	}
	// Unencodable detail degrades instead of failing.
	bad := &eda.Report{Framework: "x", Detail: func() {}}
	if _, err := bad.JSON(); err != nil {
		t.Errorf("unencodable detail: JSON() = %v, want graceful degradation", err)
	}
}

// FuzzSpecJSON feeds arbitrary bytes through the job service's decode
// rules for a submitted spec (one JSON value, unknown fields rejected),
// then normalizes and validates what decodes against the default
// registry. Nothing may panic, Normalize must be idempotent, and
// normalizing twice must not change whether ValidateIn accepts the spec.
// The corpus holds one spec per framework, from quickSpecs, and one with
// a param out of range.
func FuzzSpecJSON(f *testing.F) {
	for _, spec := range quickSpecs() {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"framework":"gp","params":{"population":1e10}}`))
	reg := eda.DefaultRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var spec eda.Spec
		if err := dec.Decode(&spec); err != nil {
			return
		}
		once := reg.Normalize(spec)
		twice := reg.Normalize(once)
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("Normalize is not idempotent:\n once  %+v\n twice %+v", once, twice)
		}
		if e1, e2 := once.ValidateIn(reg), twice.ValidateIn(reg); (e1 == nil) != (e2 == nil) {
			t.Fatalf("a second Normalize changed the verdict: %v, then %v", e1, e2)
		}
	})
}

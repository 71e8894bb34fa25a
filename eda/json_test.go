package eda_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"llm4eda/eda"
)

// reportJSONTwoPass is the encoder (*eda.Report).JSON replaced, kept as
// the wire-identity reference: Detail is marshalled on its own, then
// handed to json.Marshal again as a RawMessage, which compacts it a
// second time.
func reportJSONTwoPass(r *eda.Report) ([]byte, error) {
	detail, err := json.Marshal(r.Detail)
	if err != nil {
		detail, _ = json.Marshal(fmt.Sprintf("unencodable detail (%T): %v", r.Detail, err))
	}
	if r.Detail == nil {
		detail = nil
	}
	return json.Marshal(eda.ReportWire{
		Framework: r.Framework,
		OK:        r.OK,
		Summary:   r.Summary,
		Metrics:   r.Metrics,
		ElapsedMS: float64(r.Elapsed.Microseconds()) / 1e3,
		Spec:      r.Spec,
		Cache:     r.Cache,
		Detail:    detail,
	})
}

// spacedMarshaler returns valid but uncompacted JSON holding characters
// json.Marshal escapes, so the test sees json.Marshal's own compaction
// of a Marshaler's output.
type spacedMarshaler struct{}

func (spacedMarshaler) MarshalJSON() ([]byte, error) {
	return []byte("{ \"html\" : \"<b>&</b>\",\n  \"sep\": \"a\u2028b\u2029c\" }"), nil
}

// TestReportJSONMatchesTwoPassEncoding pins (*eda.Report).JSON byte for
// byte to the two-pass encoding it replaced: every framework's quick
// spec, details holding characters the encoder escapes, a nil detail, a
// typed nil detail, unencodable details and an unencodable metric.
func TestReportJSONMatchesTwoPassEncoding(t *testing.T) {
	reports := map[string]*eda.Report{}
	for fw, spec := range quickSpecs() {
		report, err := eda.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: Run: %v", fw, err)
		}
		reports["framework "+fw] = report
	}
	escapes := "<a href=\"x\">&amp;</a> > line\u2028para\u2029 Größe 日本 \x01"
	var nilDetail *struct{ X int }
	for name, r := range map[string]*eda.Report{
		"escaped detail": {Framework: "x", Summary: escapes,
			Detail: map[string]any{"text": escapes, "n": []float64{0.1, 1e21, -0}}},
		"marshaler detail": {Framework: "x", Detail: spacedMarshaler{}},
		"raw detail":       {Framework: "x", Detail: json.RawMessage(" [ \"<\u2028>\" , 1 ] ")},
		"nil detail":       {Framework: "x", OK: true, Metrics: map[string]float64{"k": 3}},
		"typed nil detail": {Framework: "x", Detail: nilDetail},
		"func detail":      {Framework: "x", Detail: func() {}},
		"chan detail":      {Framework: "x", Detail: map[string]any{"c": make(chan int)}},
		"nan metric":       {Framework: "x", Metrics: map[string]float64{"m": math.NaN()}, Detail: 1},
	} {
		reports[name] = r
	}
	for name, r := range reports {
		got, gotErr := r.JSON()
		want, wantErr := reportJSONTwoPass(r)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, two-pass encoding %v", name, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding differs from the two-pass encoding:\n got %s\nwant %s", name, got, want)
		}
	}
}

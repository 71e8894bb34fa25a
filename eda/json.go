package eda

import (
	"encoding/json"
	"fmt"
)

// ReportWire is the stable machine-readable form of a Report. The CLI's
// -json flag and the edaserver job endpoints both encode through it, and
// the eda/client package decodes into the same type, so there is exactly
// one report wire format in the system and a field added here reaches
// every producer and consumer by construction. Elapsed travels as
// fractional milliseconds; Detail is the framework-native result in its
// natural JSON shape, kept raw so typed clients can decode it against
// the framework's result struct.
type ReportWire struct {
	Framework string             `json:"framework"`
	OK        bool               `json:"ok"`
	Summary   string             `json:"summary"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Spec      Spec               `json:"spec"`
	// Detail must stay the last field: (*Report).JSON encodes the other
	// fields and appends the detail after them.
	Detail json.RawMessage `json:"detail,omitempty"`
}

// JSON encodes the report in the shared wire format. A Detail value that
// does not marshal (no built-in framework produces one, but registry
// embedders may) degrades to a descriptive placeholder string instead of
// failing the whole report. Detail is encoded once and appended after
// the other fields: passed to json.Marshal as a RawMessage it would be
// compacted again, which leaves json.Marshal's own output unchanged.
func (r *Report) JSON() ([]byte, error) {
	head, err := json.Marshal(ReportWire{
		Framework: r.Framework,
		OK:        r.OK,
		Summary:   r.Summary,
		Metrics:   r.Metrics,
		ElapsedMS: float64(r.Elapsed.Microseconds()) / 1e3,
		Spec:      r.Spec,
	})
	if err != nil || r.Detail == nil {
		return head, err
	}
	detail, err := json.Marshal(r.Detail)
	if err != nil {
		detail, _ = json.Marshal(fmt.Sprintf("unencodable detail (%T): %v", r.Detail, err))
	}
	const key = `,"detail":`
	out := make([]byte, 0, len(head)+len(key)+len(detail))
	out = append(out, head[:len(head)-1]...) // drop the closing brace
	out = append(out, key...)
	out = append(out, detail...)
	return append(out, '}'), nil
}

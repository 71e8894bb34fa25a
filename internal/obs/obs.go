// Package obs is the zero-dependency telemetry core of the repo:
// log-bucketed latency histograms with quantile extraction, a registry
// that renders them in Prometheus text exposition format alongside
// counter and gauge families harvested from the code that owns each
// count, and a per-job span recorder carried on the context (see
// span.go).
//
// Two contracts shape the API:
//
//   - Allocation-free when hot. Recording into a Histogram is a handful
//     of atomic adds — no locks, no maps, no allocation. Registry
//     lookups (which do lock) happen at wiring time or once per job,
//     never per simulated event.
//   - Zero overhead when off. Every recording method is safe on a nil
//     receiver and returns immediately, so call sites follow the same
//     `if x != nil`-guard discipline as the kernel's commit probes and
//     the fault-injection hooks (cmd/repolint enforces it on kernel
//     files). A build that never wires telemetry pays a nil check and
//     nothing else.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// metric kinds as they appear in `# TYPE` exposition lines.
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
	KindSummary = "summary"
)

// family is one named histogram family: a help string and one
// histogram per distinct label set.
type family struct {
	name string
	help string

	mu    sync.Mutex
	hists map[string]*Histogram // keyed by rendered label block
}

// Registry owns histogram families and renders them as Prometheus text.
// All methods are safe for concurrent use; Histogram returns the same
// instance for the same (name, labels) pair, so call sites may
// re-look-up instead of caching when off the hot path.
type Registry struct {
	mu    sync.Mutex
	order []string
	fams  map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Histogram returns the latency histogram for name and the given label
// pairs (k1, v1, k2, v2, ...), registering the family on first use. It
// is exposed as a Prometheus summary: quantile-labelled samples plus
// _sum and _count.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, hists: make(map[string]*Histogram)}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	r.mu.Unlock()
	block := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.hists[block]
	if !ok {
		h = newHistogram()
		f.hists[block] = h
	}
	return h
}

// Expose writes every registered family in Prometheus text exposition
// format (version 0.0.4), families in registration order and label sets
// in sorted order so scrapes diff cleanly.
func (r *Registry) Expose(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		blocks := make([]string, 0, len(f.hists))
		for b := range f.hists {
			blocks = append(blocks, b)
		}
		sort.Strings(blocks)
		hists := make([]*Histogram, len(blocks))
		for i, b := range blocks {
			hists[i] = f.hists[b]
		}
		f.mu.Unlock()
		writeHeader(w, f.name, f.help, KindSummary)
		for i, h := range hists {
			h.expose(w, f.name, blocks[i])
		}
	}
}

// Sample is one exposition line of a harvested (non-registry) family:
// label pairs plus a value. See WriteFamily.
type Sample struct {
	Labels []string // k1, v1, k2, v2, ...
	Value  float64
}

// WriteFamily writes one complete counter/gauge family in exposition
// format. Every count lives with the code that counts it (server
// atomics, FarmStats, faultinject counters): the caller harvests values
// at scrape time and this keeps the formatting and escaping in one
// place.
func WriteFamily(w io.Writer, name, help, kind string, samples ...Sample) {
	writeHeader(w, name, help, kind)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(s.Labels), formatValue(s.Value))
	}
}

func writeHeader(w io.Writer, name, help, kind string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// formatValue renders integral values without an exponent so counters
// read naturally, and everything else with full float precision.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// renderLabels turns (k1, v1, ...) pairs into a `{k1="v1",...}` block,
// empty for no labels. A trailing odd key gets an empty value rather
// than a panic: exposition must never take the server down.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i+1 < len(kv) {
			v = kv[i+1]
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only (quotes
// are legal there).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

package verilog

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"unsafe"
)

// This file is the compile-once half of the compile-once/run-many split.
// Every framework above the simulator scores many near-identical candidate
// sources against a handful of fixed testbenches; historically each score
// re-lexed, re-parsed and re-elaborated the full concatenated source. A
// CompiledDesign freezes the expensive front-end work into an immutable
// artifact that any number of Simulators — including concurrent ones —
// can instantiate cheaply with fresh signal state.

// CompiledDesign is an immutable lex→parse→elaborate artifact. It is safe
// for concurrent use: simulation state (signal values, event queues, RNG)
// lives entirely in the per-run Simulator, never in the design.
type CompiledDesign struct {
	// Design is the elaborated, flattened design. Read-only after Compile.
	Design *Design
	// Top is the top module the design was elaborated under.
	Top string
	// Hash is the content hash of (sources, top): the cache identity used
	// by the simfarm design and result caches.
	Hash string
}

// Compile performs the full front end once: lex→parse→elaborate src under
// the named top module. The returned artifact is immutable; run it any
// number of times with Run or NewSimulator.
func Compile(src, top string) (*CompiledDesign, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ElaborateParsed(top, DesignHash(top, src), f)
}

// CompileSources compiles a design split over several already-parsed or
// raw sources (typically DUT + testbench). Sources are parsed separately —
// so a cached parse of either half can be reused — and their module lists
// are merged in order, preserving the first-match module resolution the
// old concatenated path had.
func CompileSources(top string, srcs ...string) (*CompiledDesign, error) {
	files := make([]*SourceFile, len(srcs))
	for i, src := range srcs {
		f, err := Parse(src)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	return ElaborateParsed(top, DesignHash(top, srcs...), MergeSources(files...))
}

// MergeSources combines parsed files into one module namespace. Module
// lookup is first-match, so earlier files shadow later ones exactly like
// textual concatenation did.
func MergeSources(files ...*SourceFile) *SourceFile {
	n := 0
	for _, f := range files {
		n += len(f.Modules)
	}
	merged := &SourceFile{Modules: make([]*Module, 0, n)}
	for _, f := range files {
		merged.Modules = append(merged.Modules, f.Modules...)
	}
	return merged
}

// ElaborateParsed elaborates an already-parsed file into a CompiledDesign
// with the given cache identity. Callers that cache parses (simfarm) use
// this to skip re-parsing entirely.
func ElaborateParsed(top, hash string, f *SourceFile) (*CompiledDesign, error) {
	d, err := Elaborate(f, top)
	if err != nil {
		return nil, err
	}
	return &CompiledDesign{Design: d, Top: top, Hash: hash}, nil
}

// DesignHash is the canonical content identity of a compiled design: the
// top module name over the per-source content hashes, order-sensitive.
// Hashing hashes (rather than the raw texts) lets cache layers memoize
// each source's hash and re-key cheaply; every compile path — direct
// Compile/CompileSources and the simfarm design cache — derives Hash
// this same way, so one logical design never splits into two result-
// cache identities.
func DesignHash(top string, srcs ...string) string {
	hs := make([]string, len(srcs))
	for i, src := range srcs {
		hs[i] = HashSources("", src)
	}
	return HashSources(top, hs...)
}

// HashSources is the raw hashing primitive: the tag plus every part,
// order-sensitive. Design identities are built from it via DesignHash.
func HashSources(top string, srcs ...string) string {
	h := sha256.New()
	hashString(h, top)
	for _, src := range srcs {
		h.Write([]byte{0})
		hashString(h, src)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashString feeds s to h without the full []byte(s) copy io.WriteString
// makes for writers lacking WriteString — candidate sources run to
// kilobytes and are hashed on every cache probe. The unsafe view is sound
// because sha256's Write only reads its input.
func hashString(h hash.Hash, s string) {
	if len(s) == 0 {
		return
	}
	h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// Run instantiates a fresh Simulator over the compiled design and executes
// it. Each call gets independent signal state and RNG seeding, so repeated
// and concurrent runs are bit-identical to a freshly compiled serial run.
func (cd *CompiledDesign) Run(opts SimOptions) (*SimResult, error) {
	return NewSimulator(cd.Design, opts).Run()
}

// Package engine defines the contract every internal matching engine
// implements so the public API can split compilation from scanning:
// an Engine is the *compiled* form of one matcher — every byte of it is
// read-only after construction, so a single Engine may be scanned from
// any number of goroutines — while all mutable per-scan working memory
// (candidate arrays, vector-lane sinks, accumulators) lives in a
// Scratch that each goroutine owns privately.
//
// This is the immutable-database / per-thread-scratch split production
// matchers (Hyperscan, YARA) use, and the structure the paper's
// multi-core scaling argument assumes: one compiled pattern-matching
// structure shared by all hardware threads, each operating independently
// on its part of the stream.
package engine

import (
	"vpatch/internal/accel"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

// Scratch is the opaque per-goroutine mutable state of one engine's
// scan. Engines whose compiled state is their only scan state (their
// Scan keeps everything in locals) return nil. A Scratch must never be
// used by two goroutines at once; distinct Scratches over the same
// Engine are fully independent.
type Scratch = any

// Engine is the compiled, immutable, goroutine-safe form of one
// matching algorithm.
type Engine interface {
	// NewScratch allocates the mutable working memory one goroutine
	// needs to scan with this engine (nil for stateless engines).
	NewScratch() Scratch
	// ScanScratch scans input using scr as working memory, reporting
	// every occurrence of every pattern. Calls with distinct scratches
	// may run concurrently; c and emit may be nil.
	ScanScratch(scr Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc)
}

// Sizer is implemented by engines that can report the resident size of
// their compiled state (filters, automata, verification tables). Used
// by the public Engine.Info.
type Sizer interface {
	MemoryFootprint() int
}

// AccelReporter is implemented by the engines that carry a skip-loop
// acceleration layer: the filtering engines S-PATCH and V-PATCH. Used by the public
// Engine.Info to surface the selected skip mode and the rule set's
// start-window density.
type AccelReporter interface {
	AccelInfo() accel.Info
}

// KernelReporter is implemented by engines whose filtering round
// dispatches to a CPU-specific extract kernel (S-PATCH, V-PATCH). It
// reports the kernel resolved at Compile/Deserialize time ("avx2",
// "swar"); the public Engine.Info and the serve daemon's /metrics
// surface it.
type KernelReporter interface {
	KernelInfo() string
}

// BatchEmitFunc receives matches found by a batch scan: buf is the
// index within the batch of the buffer the match occurred in, and the
// match's Pos is relative to that buffer. nil means count-only.
type BatchEmitFunc func(buf int, m patterns.Match)

// BatchEngine is implemented by engines with a native
// many-buffers-per-call scan path — for S-PATCH and V-PATCH, filtering
// and verification rounds that span the batch's buffers up to a
// cache-sized chunk, so a batch of small inputs pays one round of each
// instead of one per buffer. Engines without a native path are driven
// through the ScanBatch fallback instead.
type BatchEngine interface {
	Engine
	// ScanBatchScratch scans every buffer of inputs using scr as working
	// memory, reporting each match with its buffer index. Per-buffer
	// match semantics are identical to ScanScratch on that buffer alone.
	// Calls with distinct scratches may run concurrently; c and emit may
	// be nil.
	ScanBatchScratch(scr Scratch, inputs [][]byte, c *metrics.Counters, emit BatchEmitFunc)
}

// ScanBatch scans every buffer of inputs through e: engines
// implementing BatchEngine take their native batch path, all others a
// serial per-buffer fallback loop with identical per-buffer semantics.
// This is the one entry point upper layers use, so every algorithm is
// batch-callable regardless of whether batching helps it.
func ScanBatch(e Engine, scr Scratch, inputs [][]byte, c *metrics.Counters, emit BatchEmitFunc) {
	if be, ok := e.(BatchEngine); ok {
		be.ScanBatchScratch(scr, inputs, c, emit)
		return
	}
	cur := 0
	var wrap patterns.EmitFunc
	if emit != nil {
		wrap = func(m patterns.Match) { emit(cur, m) }
	}
	for i, input := range inputs {
		cur = i
		e.ScanScratch(scr, input, c, wrap)
	}
}

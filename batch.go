package vpatch

import (
	"vpatch/internal/engine"
	"vpatch/internal/patterns"
)

// Batch scanning: many buffers per call. Real NIDS traffic is
// overwhelmingly small packets, and scanning them one Scan call at a
// time leaves per-call setup and too-short filtering rounds dominating
// (the small-input weakness the paper's Fig. 5b exposes). ScanBatch
// hands the engine a whole batch: S-PATCH and V-PATCH scan it with one
// call, one emit adapter and filtering/verification rounds that span the
// batch's buffers, lane-exact accounting (Counters.LaneExact) included.
// The other five algorithms scan the batch through an equivalent
// per-buffer loop. Per-buffer match semantics are identical to Scan on
// that buffer alone, for every algorithm.

// BatchEmitFunc receives matches during a batch scan: buf is the index
// within the batch of the buffer the match occurred in, and the match's
// Pos is relative to that buffer. nil means count-only.
type BatchEmitFunc = engine.BatchEmitFunc

// ScanBatch scans every buffer of inputs, reporting each match with its
// buffer index. c and emit may be nil; counters accumulate across the
// whole batch.
// Like Scan, a Session must not be used from two goroutines at once;
// distinct Sessions over one Engine batch-scan concurrently.
func (s *Session) ScanBatch(inputs [][]byte, c *Counters, emit BatchEmitFunc) {
	engine.ScanBatch(s.eng.eng, s.scratch, inputs, c, emit)
}

// ScanBatch scans every buffer of inputs, reporting each match with its
// buffer index. Safe to call from any goroutine (scratch comes from the
// internal pool); concurrent callers must pass distinct (or nil)
// Counters. Hot loops should prefer a per-goroutine Session.
func (e *Engine) ScanBatch(inputs [][]byte, c *Counters, emit BatchEmitFunc) {
	s, _ := e.sessions.Get().(*Session)
	if s == nil {
		s = e.NewSession()
	}
	s.ScanBatch(inputs, c, emit)
	e.sessions.Put(s)
}

// FindAllBatch scans every buffer of inputs and returns one match slice
// per buffer, each sorted by (offset, pattern ID) — buffer by buffer
// identical to FindAll. Safe for concurrent use like ScanBatch.
func (e *Engine) FindAllBatch(inputs [][]byte) [][]Match {
	out := make([][]Match, len(inputs))
	e.ScanBatch(inputs, nil, func(buf int, m Match) {
		out[buf] = append(out[buf], m)
	})
	for _, ms := range out {
		patterns.SortMatches(ms)
	}
	return out
}

// FindAllBatch is a convenience helper: compile-and-batch-scan in one
// call. For repeated batches, compile once with Compile instead.
func FindAllBatch(set *PatternSet, inputs [][]byte, opt Options) ([][]Match, error) {
	e, err := Compile(set, opt)
	if err != nil {
		return nil, err
	}
	return e.FindAllBatch(inputs), nil
}

// FindAllBatchParallel scans many independent buffers with several
// workers pulling batches of buffers from a shared queue — the
// many-small-streams deployment (per-packet or per-flow work), where a
// shared queue load-balances skewed buffer sizes automatically. The
// result is identical to FindAllBatch. workers <= 0 selects GOMAXPROCS.
func (e *Engine) FindAllBatchParallel(inputs [][]byte, workers int) [][]Match {
	workers = clampWorkers(workers, len(inputs))
	if workers <= 1 {
		return e.FindAllBatch(inputs)
	}
	out := make([][]Match, len(inputs))
	sessions := make([]*Session, workers)
	pullBatches(len(inputs), workers, parallelBufferPull, func(w, lo, hi int) {
		if sessions[w] == nil {
			sessions[w] = e.NewSession()
		}
		// Workers write disjoint out[lo:hi] slots: no locking.
		sessions[w].ScanBatch(inputs[lo:hi], nil, func(buf int, m Match) {
			out[lo+buf] = append(out[lo+buf], m)
		})
	})
	for _, ms := range out {
		patterns.SortMatches(ms)
	}
	return out
}

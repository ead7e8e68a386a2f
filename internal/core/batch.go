package core

import (
	"vpatch/internal/engine"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

// Batch scanning: V-PATCH's native many-buffers-per-call path.
//
// On a small input (a single network packet) most of a scan is per-call
// set-up and a filtering round too short to amortize it — the weakness
// the paper's own small-input discussion (Fig. 5b, §V) exposes. The
// paper's answer is the two-round design itself: filter a cache-sized
// chunk, then verify it. The batch path applies that across buffers: one
// call for the whole batch, and filtering and verification rounds that
// span consecutive small buffers up to a chunk's worth of input, on the
// fused kernels (fused.go) every production scan uses.
//
// A lane-exact request (Counters.LaneExact, ForceEngine and the
// ablations the fused kernels do not express) has no batch rendition of
// its own: it runs the serial lane-exact scan buffer by buffer, the
// fallback engine.ScanBatch gives every other algorithm, which is what
// the fused batch path is parity-tested against.

var _ engine.BatchEngine = (*VPatch)(nil)

// ScanBatchScratch scans every buffer of inputs using scr as working
// memory, reporting each match with its buffer index (engine.BatchEngine).
// Per-buffer match semantics are identical to ScanScratch on that buffer
// alone. Calls with distinct scratches may run concurrently.
func (m *VPatch) ScanBatchScratch(scr engine.Scratch, inputs [][]byte, c *metrics.Counters, emit engine.BatchEmitFunc) {
	m.scanBatch(scr.(*Scratch), inputs, c, emit)
}

// ScanBatch scans a batch with the matcher's built-in scratch
// (single-goroutine; use ScanBatchScratch for concurrent scans).
func (m *VPatch) ScanBatch(inputs [][]byte, c *metrics.Counters, emit engine.BatchEmitFunc) {
	m.scanBatch(m.builtinScratch(), inputs, c, emit)
}

// scanBatch runs the fused kernel over the batch with one emit adapter
// for all of it, so the batch call is serial-scan work minus the
// per-packet call and set-up overhead that dominates small-packet
// scanning, with per-buffer match output identical to scan's (tested).
//
// The two-round structure spans buffers: a filtering round runs the
// kernel over consecutive units (a buffer, or one chunk of a buffer
// larger than a chunk) until a chunk's worth of input has been filtered,
// appending every unit's candidates to the serial int32 arrays and
// noting where each unit's candidates end; the verification round then
// replays them unit by unit. A batch of small packets is therefore one
// round, and an instrumented batch reads the clock once per round
// boundary — never per buffer — to split FilteringNs from VerifyNs.
func (m *VPatch) scanBatch(scr *Scratch, inputs [][]byte, c *metrics.Counters, emit engine.BatchEmitFunc) {
	buf := 0
	var wrap patterns.EmitFunc
	if emit != nil {
		wrap = func(mm patterns.Match) { emit(buf, mm) }
	}
	if m.laneExact(c) {
		for b, input := range inputs {
			buf = b
			m.scan(scr, input, c, wrap)
		}
		return
	}
	var sw metrics.Stopwatch
	if c != nil {
		for _, in := range inputs {
			c.BytesScanned += uint64(len(in))
		}
		sw = metrics.Start()
	}
	scr.aShort = scr.aShort[:0]
	scr.aLong = scr.aLong[:0]
	scr.units = scr.units[:0]
	filtered := 0
	for b, input := range inputs {
		n := len(input)
		for start := 0; start < n; start += m.chunk {
			end := start + m.chunk
			if end > n {
				end = n
			}
			m.fusedRange(scr, input, start, end, c, true)
			scr.units = append(scr.units, batchUnit{
				buf: int32(b), endShort: int32(len(scr.aShort)), endLong: int32(len(scr.aLong)),
			})
			if filtered += end - start; filtered >= m.chunk {
				filtered = 0
				m.verifyUnits(scr, inputs, c, &sw, &buf, wrap)
			}
		}
	}
	m.verifyUnits(scr, inputs, c, &sw, &buf, wrap)
}

// verifyUnits is the verification round of scanBatch: it replays
// the candidates of every filtered unit against the compact hash tables
// in unit order (short then long within a unit, as the serial scan
// does), pointing *buf at the unit's buffer for the emit adapter, then
// resets the round. With counters it closes the filtering lap on sw and
// times itself.
func (m *common) verifyUnits(scr *Scratch, inputs [][]byte, c *metrics.Counters, sw *metrics.Stopwatch, buf *int, emit patterns.EmitFunc) {
	if len(scr.units) == 0 {
		return
	}
	if c != nil {
		c.FilteringNs += sw.Lap()
		c.ShortCandidates += uint64(len(scr.aShort))
		c.LongCandidates += uint64(len(scr.aLong))
	}
	s0, l0 := 0, 0
	for _, u := range scr.units {
		*buf = int(u.buf)
		input := inputs[u.buf]
		for _, pos := range scr.aShort[s0:u.endShort] {
			m.verifier.VerifyShortAt(input, int(pos), c, emit)
		}
		for _, pos := range scr.aLong[l0:u.endLong] {
			m.verifier.VerifyLongAt(input, int(pos), c, emit)
		}
		s0, l0 = int(u.endShort), int(u.endLong)
	}
	scr.aShort = scr.aShort[:0]
	scr.aLong = scr.aLong[:0]
	scr.units = scr.units[:0]
	if c != nil {
		c.VerifyNs += sw.Lap()
	}
}

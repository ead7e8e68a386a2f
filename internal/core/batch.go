package core

import (
	"vpatch/internal/engine"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

// The scan loop, once for both algorithms and both entry points.
//
// On a small input (a single network packet) most of a scan is per-call
// set-up and a filtering round too short to amortize it — the weakness
// the paper's own small-input discussion (Fig. 5b, §V) exposes. The
// paper's answer is the two-round design itself: filter a cache-sized
// chunk, then verify it. The loop applies that across buffers: one call
// for a whole batch, and filtering and verification rounds that span
// consecutive small buffers up to a chunk's worth of input. A serial
// scan is a batch of one buffer, so Scan and ScanBatch, S-PATCH and
// V-PATCH, fused and lane-exact all run the same rounds; only
// filterRange's choice of kernel differs between them.

var (
	_ engine.BatchEngine = (*SPatch)(nil)
	_ engine.BatchEngine = (*VPatch)(nil)
)

// builtinScratch lazily allocates the scratch behind the scratch-less
// convenience methods.
func (m *common) builtinScratch() *Scratch {
	if m.scr == nil {
		m.scr = NewScratch()
	}
	return m.scr
}

// NewScratch allocates per-goroutine scan state (engine.Engine).
func (m *common) NewScratch() engine.Scratch { return NewScratch() }

// ScanScratch scans input using scr as working memory. Calls with
// distinct scratches may run concurrently (engine.Engine).
func (m *common) ScanScratch(scr engine.Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	s := scr.(*Scratch)
	s.one[0] = input
	m.scan(s, s.one[:], c, emit)
	s.one[0] = nil
}

// Scan reports every occurrence of every pattern in input. c and emit may
// be nil. Scan uses the matcher's built-in scratch and therefore must not
// be called from multiple goroutines at once; use ScanScratch for that.
func (m *common) Scan(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.ScanScratch(m.builtinScratch(), input, c, emit)
}

// ScanBatchScratch scans every buffer of inputs using scr as working
// memory, reporting each match with its buffer index (engine.BatchEngine).
// Per-buffer match semantics are identical to ScanScratch on that buffer
// alone. Calls with distinct scratches may run concurrently.
func (m *common) ScanBatchScratch(scr engine.Scratch, inputs [][]byte, c *metrics.Counters, emit engine.BatchEmitFunc) {
	s := scr.(*Scratch)
	var wrap patterns.EmitFunc
	if emit != nil {
		wrap = func(mm patterns.Match) { emit(s.buf, mm) }
	}
	m.scan(s, inputs, c, wrap)
}

// ScanBatch scans a batch with the matcher's built-in scratch
// (single-goroutine; use ScanBatchScratch for concurrent scans).
func (m *common) ScanBatch(inputs [][]byte, c *metrics.Counters, emit engine.BatchEmitFunc) {
	m.ScanBatchScratch(m.builtinScratch(), inputs, c, emit)
}

// scan is the two-round loop. A filtering round runs filterRange over
// consecutive units (a buffer, or one chunk of a buffer larger than a
// chunk) until a chunk's worth of input has been filtered, appending
// every unit's candidates to the int32 arrays and noting where each
// unit's candidates end; the verification round then replays them unit
// by unit. A batch of small packets is therefore one round, a large
// buffer one round per chunk, and an instrumented scan reads the clock
// once per round boundary — never per buffer — to split FilteringNs from
// VerifyNs.
func (m *common) scan(scr *Scratch, inputs [][]byte, c *metrics.Counters, emit patterns.EmitFunc) {
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
			m.filterRange(scr, input, start, end, c, true)
			scr.units = append(scr.units, batchUnit{
				buf: int32(b), endShort: int32(len(scr.aShort)), endLong: int32(len(scr.aLong)),
			})
			if filtered += end - start; filtered >= m.chunk {
				filtered = 0
				m.verifyUnits(scr, inputs, c, &sw, emit)
			}
		}
	}
	m.verifyUnits(scr, inputs, c, &sw, emit)
}

// verifyUnits is the verification round (Algorithm 1, lines 15-20): it
// replays the candidates of every filtered unit against the compact hash
// tables in unit order (short then long within a unit), pointing scr.buf
// at the unit's buffer for the emit adapter, then resets the round. With
// counters it closes the filtering lap on sw and times itself.
func (m *common) verifyUnits(scr *Scratch, inputs [][]byte, c *metrics.Counters, sw *metrics.Stopwatch, emit patterns.EmitFunc) {
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
		scr.buf = int(u.buf)
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

package core

import (
	"vpatch/internal/bitarr"
	"vpatch/internal/engine"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/vec"
)

// Batch scanning: V-PATCH's native many-buffers-per-call path.
//
// The serial filtering round assigns the W lanes of a register to W
// *consecutive positions of one buffer*, so on a small input (a single
// network packet) most of the scan is sub-register tail and per-call
// setup — the weakness the paper's own small-input discussion (Fig. 5b,
// §V) exposes. Batch mode inverts the assignment: each lane walks a
// *different* buffer of the batch, one position per step, so
//
//   - one merged filter gather serves W different packets,
//   - a lane whose packet drains refills from the pending queue instead
//     of idling, keeping lane occupancy near 100% regardless of packet
//     size (measured by Counters.BatchLaneFrac), and
//   - candidate stores carry (buffer, position) pairs, flushed through
//     the shared verification round at a cache-sized watermark.
//
// That lane-per-packet round exists on the explicit vector engine
// (per-op emulated registers, exact gather/lane statistics) and runs
// when lane-exact accounting is asked for (Counters.LaneExact,
// ForceEngine): it is what the Fig. 5b batch reproduction and
// BatchLaneFrac measure. Production batch scans, with or without
// counters, use a fused rendition whose per-buffer match output is
// identical (tested), keeping the structural wins that survive without
// SIMD hardware: one call for the whole batch, half the filter lookups
// (merging), and filtering and verification rounds amortized across
// buffers.

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

func (m *VPatch) scanBatch(scr *Scratch, inputs [][]byte, c *metrics.Counters, emit engine.BatchEmitFunc) {
	if c != nil {
		for _, in := range inputs {
			c.BytesScanned += uint64(len(in))
		}
	}
	if m.laneExact(c) {
		m.laneScanBatch(scr, inputs, c, emit)
		return
	}
	m.fusedScanBatch(scr, inputs, c, emit)
}

// laneScanBatch is the explicit lane-per-packet filtering round on the
// emulated vector engine. Buffers with fewer than 4 bytes never enter a
// lane (no full 4-byte window exists); they run entirely through the
// scalar chain at refill time, exactly like the serial scalar tail.
func (m *VPatch) laneScanBatch(scr *Scratch, inputs [][]byte, c *metrics.Counters, emit engine.BatchEmitFunc) {
	scr.bShort = scr.bShort[:0]
	scr.bLong = scr.bLong[:0]
	eng := m.eng
	w := eng.Width()
	var cur vec.Cursors
	var lim [vec.MaxLanes]int32 // last vector-walkable position per lane
	var active vec.Mask
	next := 0

	var sw metrics.Stopwatch
	if c != nil {
		sw = metrics.Start() // before the first refill: it already filters
	}
	// flush runs the verification round once a candidate array reaches
	// the cache-residency watermark.
	flush := func() {
		if len(scr.bShort) < batchFlushCandidates && len(scr.bLong) < batchFlushCandidates {
			return
		}
		if c != nil {
			c.FilteringNs += sw.Stop()
		}
		m.verifyBatch(scr, inputs, c, emit)
		if c != nil {
			sw = metrics.Start()
		}
	}
	// refill hands lane l the next pending buffer, draining any buffer
	// too short for vector stepping through the scalar chain on the way
	// (flushing per drained buffer — a run of tiny buffers must not grow
	// the candidate arrays past the watermark).
	refill := func(l int) {
		for next < len(inputs) {
			b := next
			next++
			n := len(inputs[b])
			if n >= 4 {
				cur.Buf[l] = int32(b)
				cur.Pos[l] = 0
				lim[l] = int32(n - 4)
				active |= 1 << l
				return
			}
			for i := 0; i < n; i++ {
				m.scalarFilterPosBatch(scr, inputs[b], int32(b), i, n, c)
			}
			flush()
		}
		active &^= 1 << l
	}
	for l := 0; l < w; l++ {
		refill(l)
	}
	for active.Any() {
		m.batchFilterStep(scr, inputs, &cur, active, c)
		eng.Advance(&cur, active)
		// Drain lanes whose buffer ran out of vector positions: finish
		// the buffer's sub-register tail scalar, then refill the lane.
		for l := 0; l < w; l++ {
			if !active.Test(l) || cur.Pos[l] <= lim[l] {
				continue
			}
			b := cur.Buf[l]
			n := len(inputs[b])
			for i := int(cur.Pos[l]); i < n; i++ {
				m.scalarFilterPosBatch(scr, inputs[b], b, i, n, c)
			}
			refill(l)
		}
		flush()
	}
	if c != nil {
		c.FilteringNs += sw.Stop()
	}
	m.verifyBatch(scr, inputs, c, emit)
}

// batchFilterStep runs one lane-per-packet filtering step over the
// active lanes: the Algorithm 2 body with the W consecutive windows of
// one buffer replaced by one window from each of W buffers.
func (m *VPatch) batchFilterStep(scr *Scratch, inputs [][]byte, cur *vec.Cursors, active vec.Mask, c *metrics.Counters) {
	eng := m.eng
	fs := m.fs

	if c != nil {
		c.BatchIters++
		c.BatchActiveLanes += uint64(active.Count())
		c.Filter1Probes += uint64(active.Count())
		c.Filter2Probes += uint64(active.Count())
	}

	// One cross-buffer gather builds the W 2-byte windows.
	idx := eng.GatherWindows2(inputs, cur, active)
	byteIdx := eng.ShiftRightConst(idx, 3)
	bit := eng.AndConst(idx, 7)

	// Merged filter-1/filter-2 fetch, exactly as in the serial round.
	var hit1, hit2 vec.Mask
	if !m.opt.NoFilterMerge {
		words := eng.GatherU16(fs.Merged.Words(), byteIdx)
		hit1 = eng.TestBit(words, bit) & active
		hit2 = eng.TestBit(words, eng.AddConst(bit, 8)) & active
		if c != nil {
			c.Gathers++
			c.MergedGathers++
		}
	} else {
		w1 := eng.GatherU8(fs.Filter1.Bytes(), byteIdx)
		w2 := eng.GatherU8(fs.Filter2.Bytes(), byteIdx)
		hit1 = eng.TestBit(w1, bit) & active
		hit2 = eng.TestBit(w2, bit) & active
		if c != nil {
			c.Gathers += 2
		}
	}

	if hit1.Any() {
		scr.bShort = eng.CompressStoreCursors(scr.bShort, cur, hit1)
	}

	// Speculative filter 3 over the active lanes, masked by filter-2
	// hits (the serial design's choice, unchanged).
	if !hit2.Any() {
		return
	}
	if c != nil {
		c.Filter3Blocks++
		c.Filter3UsefulLanes += uint64(hit2.Count())
	}
	var hit3 vec.Mask
	if m.opt.BranchyFilter3 {
		hit2.ForEach(func(lane int) {
			if c != nil {
				c.Filter3Probes++
			}
			b := inputs[cur.Buf[lane]]
			if fs.Filter3.Test4(bitarr.Load4(b[cur.Pos[lane]:])) {
				hit3 |= 1 << lane
			}
		})
	} else {
		vals := eng.GatherWindows4(inputs, cur, active)
		keys := eng.ShiftRightConst(eng.MulConst(vals, bitarr.MulHashConst), fs.Filter3.Shift())
		f3words := eng.GatherU8(fs.Filter3.Bytes(), eng.ShiftRightConst(keys, 3))
		hit3 = eng.TestBit(f3words, eng.AndConst(keys, 7)) & hit2
		if c != nil {
			c.Gathers++
			c.Filter3Probes += uint64(active.Count())
		}
	}
	if hit3.Any() {
		scr.bLong = eng.CompressStoreCursors(scr.bLong, cur, hit3)
	}
}

// fusedScanBatch is the production rendition of the batch scan: the
// fused kernel (fused.go — skip-loop acceleration plus the SWAR probe
// chain, exactly the serial production path) run buffer by buffer with
// one emit adapter for the whole batch, so per-buffer match output is
// identical to the lane path (tested) and the batch call is serial-scan
// work minus the per-packet call and setup overhead that dominates
// small-packet scanning.
//
// The two-round structure spans buffers: a filtering round runs the
// kernel over consecutive units (a buffer, or one chunk of a buffer
// larger than a chunk) until a chunk's worth of input has been filtered,
// appending every unit's candidates to the serial int32 arrays and
// noting where each unit's candidates end; the verification round then
// replays them unit by unit. A batch of small packets is therefore one
// round, and an instrumented batch reads the clock once per round
// boundary — never per buffer — to split FilteringNs from VerifyNs.
func (m *VPatch) fusedScanBatch(scr *Scratch, inputs [][]byte, c *metrics.Counters, emit engine.BatchEmitFunc) {
	buf := 0
	var wrap patterns.EmitFunc
	if emit != nil {
		wrap = func(mm patterns.Match) { emit(buf, mm) }
	}
	var sw metrics.Stopwatch
	if c != nil {
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

// verifyUnits is the verification round of fusedScanBatch: it replays
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

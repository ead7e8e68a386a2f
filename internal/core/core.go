// Package core implements the paper's contribution: S-PATCH, the
// cache-aware, vectorization-friendly redesign of DFC's filtering stage
// (§IV-A), and V-PATCH, its vectorized version (§IV-B).
//
// Both algorithms share the same structure, which this file implements:
//
//   - The input is processed in cache-sized chunks. For each chunk a
//     *filtering round* runs first, writing candidate positions into two
//     temporary arrays (A_short for filter-1 hits, A_long for positions
//     corroborated by filters 2 and 3); a *verification round* then
//     replays the arrays against the compact hash tables. Splitting the
//     rounds keeps each round's data structures cache-resident and — for
//     V-PATCH — avoids mixing vector and scalar code (paper §IV-A).
//
//   - Filter 1 holds the short patterns (1-3 B, 2-byte index), filter 2
//     the long patterns (>= 4 B, same index), filter 3 a multiplicative
//     hash of 4-byte windows of the long patterns.
//
// S-PATCH executes the filtering round with scalar probes; V-PATCH (in
// vpatch.go) executes it W positions at a time with gathers on the merged
// filter. That is the only difference, so the scan loop (batch.go), the
// fused kernels (fused.go) and the scan entry points live on common once;
// each algorithm adds its constructor, its probe chain and its lane-exact
// rendition of the filtering round.
//
// Compiled state (filters, verification tables) is immutable after
// construction; the candidate arrays are per-scan working memory held in
// a Scratch, so one compiled matcher can serve concurrent scans that
// each bring their own Scratch (the engine.Engine contract).
package core

import (
	"vpatch/internal/accel"
	"vpatch/internal/bitarr"
	"vpatch/internal/filters"
	"vpatch/internal/hashtab"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/vec"
)

// DefaultChunkSize is the filtering-round granularity: 64 KB keeps the
// chunk plus both candidate arrays inside L2 next to the filters.
const DefaultChunkSize = 64 << 10

// Scratch is the mutable working memory of one S-PATCH/V-PATCH scan:
// the candidate arrays of the filtering round (reset per round, reused
// across rounds and scans) plus the no-store sink of the filtering-only
// measurement mode. A Scratch belongs to exactly one goroutine at a
// time; the compiled matcher it is used with is never written during a
// scan.
type Scratch struct {
	aShort []int32
	aLong  []int32

	// units records which buffer each filtered unit of the current round
	// belongs to and where its candidates end in aShort/aLong (batch.go).
	units []batchUnit

	// sink absorbs filter masks in no-store mode (Fig. 6's
	// "V-PATCH-filtering" variant) so the work is not dead-code.
	sink uint32

	// aq is the viable-position queue of the accelerated fused kernels
	// (fused.go): accel.Extract compacts positions that pass the
	// window-viability bitmap into it, and the probe chain drains it at
	// the watermark. Scratch-resident so the hot path never pays the
	// stack-array zeroing a local would cost on every call.
	aq [accel.QueueLen]int32

	// buf is the buffer of the unit being verified, the batch emit
	// adapter's argument; one holds a serial scan's input, because a
	// serial scan is a batch of one buffer and this keeps that batch off
	// the heap.
	buf int
	one [1][]byte
}

// batchUnit is one filtered unit of a round: a whole buffer, or one
// chunk of a buffer larger than a chunk.
type batchUnit struct {
	buf, endShort, endLong int32
}

// NewScratch allocates scan working memory sized for typical candidate
// densities.
func NewScratch() *Scratch {
	return &Scratch{
		aShort: make([]int32, 0, 4096),
		aLong:  make([]int32, 0, 4096),
	}
}

// common holds the compiled state S-PATCH and V-PATCH share — the filter
// stage and the verification tables — all read-only after construction.
type common struct {
	set      *patterns.Set
	fs       *filters.SPatchSet
	verifier *hashtab.Verifier
	chunk    int

	// accel is the skip-loop acceleration table derived from the merged
	// filter-1/2 state (fused.go); noAccel is the runtime ablation
	// switch that forces the plain kernels.
	accel   *accel.Table
	noAccel bool

	// split selects S-PATCH's probe chain (separate filter-1 and
	// filter-2 lookups, Alg. 1) in the fused kernels instead of V-PATCH's
	// merged-word fetch. It is the algorithm, not an option: NewSPatch
	// sets it, nothing else does.
	split bool

	// kern is the extract-loop kernel resolved at compile time by the
	// CPUID dispatch (fused.go setKernel); kblock/klook cache its
	// geometry for the burst arithmetic.
	kern   vec.KernelID
	kblock int
	klook  int

	// exactRange is the algorithm's lane-exact filtering rendition
	// (S-PATCH's per-position scalar chain, V-PATCH's explicit vector
	// engine), wired by NewSPatch/NewVPatch; pinExact makes every scan
	// take it (V-PATCH's ablations the fused kernels do not express).
	// See filterRange.
	exactRange func(scr *Scratch, input []byte, start, end int, c *metrics.Counters, stores bool)
	pinExact   bool

	// scr backs the scratch-less Scan/ScanBatch/FilterOnly convenience
	// methods, which therefore remain single-goroutine (use the Scratch
	// methods with per-goroutine scratches for concurrent scans).
	// Allocated lazily so engines scanned only through sessions never
	// pay for it.
	scr *Scratch
}

func newCommon(set *patterns.Set, filter3Log2Bits uint, chunkSize int, kern vec.KernelID) common {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	c := common{
		set:      set,
		fs:       filters.BuildSPatch(set, filter3Log2Bits),
		verifier: hashtab.Build(set),
		chunk:    chunkSize,
	}
	c.buildAccel()
	c.setKernel(kern)
	return c
}

// MemoryFootprint reports resident bytes of the compiled state: the
// filter stage plus the verification tables (engine.Sizer).
func (m *common) MemoryFootprint() int {
	return m.fs.SizeBytes() + m.verifier.MemoryFootprint()
}

// scalarFilterPos runs the scalar S-PATCH filter chain for position i
// (Algorithm 1, lines 4-13) and appends candidates to scr. Used by
// S-PATCH for every position and by V-PATCH for the sub-register tail.
func (m *common) scalarFilterPos(scr *Scratch, input []byte, i, n int, c *metrics.Counters) {
	if i+1 >= n {
		// Final byte: no 2-byte window exists; only 1-byte patterns can
		// still start here.
		if m.fs.HasLen1 {
			scr.aShort = append(scr.aShort, int32(i))
		}
		return
	}
	idx := bitarr.Index2(input[i], input[i+1])
	if c != nil {
		c.Filter1Probes++
		c.Filter2Probes++
	}
	if m.fs.Filter1.Test(idx) {
		scr.aShort = append(scr.aShort, int32(i))
	}
	if m.fs.Filter2.Test(idx) && i+4 <= n {
		if c != nil {
			c.Filter3Probes++
		}
		if m.fs.Filter3.Test4(bitarr.Load4(input[i:])) {
			scr.aLong = append(scr.aLong, int32(i))
		}
	}
}

// filterRange runs the filtering round over positions [start, end) of
// input, appending candidates to scr. Production scans, with or without
// counters, take the fused kernels (fused.go); the algorithm's
// lane-exact rendition runs when the caller asks for exact probe
// accounting (Counters.LaneExact) or the matcher pins it. Attaching
// plain counters never selects it. Candidate output is bit-identical
// either way (tested).
func (m *common) filterRange(scr *Scratch, input []byte, start, end int, c *metrics.Counters, stores bool) {
	if m.pinExact || (c != nil && c.LaneExact) {
		m.exactRange(scr, input, start, end, c, stores)
		return
	}
	m.fusedRange(scr, input, start, end, c, stores)
}

// filterOnly runs only the filtering rounds over the whole input and
// returns copies of the accumulated candidate positions; with
// stores=false the store step is suppressed and only counts are
// returned (Fig. 6's filtering-only measurements).
func (m *common) filterOnly(input []byte, c *metrics.Counters, stores bool) (short, long []int32) {
	if c != nil {
		c.BytesScanned += uint64(len(input))
	}
	scr := m.builtinScratch()
	n := len(input)
	for start := 0; start < n; start += m.chunk {
		end := start + m.chunk
		if end > n {
			end = n
		}
		scr.aShort = scr.aShort[:0]
		scr.aLong = scr.aLong[:0]
		var sw metrics.Stopwatch
		if c != nil {
			sw = metrics.Start()
		}
		m.filterRange(scr, input, start, end, c, stores)
		if c != nil {
			c.FilteringNs += sw.Stop()
			c.ShortCandidates += uint64(len(scr.aShort))
			c.LongCandidates += uint64(len(scr.aLong))
		}
		if stores {
			short = append(short, scr.aShort...)
			long = append(long, scr.aLong...)
		}
	}
	return short, long
}

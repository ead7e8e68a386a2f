// Package dfc reproduces Direct Filter Classification (Choi et al.,
// NSDI'16), the state of the art the paper measures against, plus
// Vector-DFC, the paper's direct vectorization of DFC's filtering.
//
// DFC replaces the Aho-Corasick state machine with small cache-resident
// filters: an initial 8 KB direct filter over the first two bytes of all
// patterns, per-length-family filters behind it, and compact hash tables
// for exact verification. Filtering and verification are interleaved
// *inline*, position by position — the structural property S-PATCH later
// changes (two separate rounds), and the reason Vector-DFC gains little:
// the vectorized filter code keeps dropping back into scalar verification.
//
// Both matchers run the paper's plain loops on every input. The
// skip-loop acceleration layer (internal/accel) belongs to S-PATCH and
// V-PATCH alone, so DFC stays the unaccelerated baseline it is in the
// paper, and neither matcher implements engine.AccelReporter.
package dfc

import (
	"vpatch/internal/bitarr"
	"vpatch/internal/engine"
	"vpatch/internal/filters"
	"vpatch/internal/hashtab"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/vec"
)

// Matcher is the scalar DFC matcher. All compiled state is read-only
// after Build and Scan keeps its automaton walk in locals, so one
// Matcher may scan from any number of goroutines concurrently.
type Matcher struct {
	set      *patterns.Set
	fs       *filters.DFCSet
	verifier *hashtab.Verifier
}

var (
	_ engine.Engine = (*Matcher)(nil)
	_ engine.Engine = (*VectorMatcher)(nil)
)

// NewScratch returns nil: DFC keeps no mutable scan state
// (engine.Engine).
func (m *Matcher) NewScratch() engine.Scratch { return nil }

// ScanScratch scans input, ignoring scr (engine.Engine).
func (m *Matcher) ScanScratch(_ engine.Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.Scan(input, c, emit)
}

// Build compiles the pattern set into a DFC matcher.
func Build(set *patterns.Set) *Matcher {
	return &Matcher{
		set:      set,
		fs:       filters.BuildDFC(set),
		verifier: hashtab.Build(set),
	}
}

// Verifier exposes the compact hash tables (shared with Vector-DFC).
func (m *Matcher) Verifier() *hashtab.Verifier { return m.verifier }

// MemoryFootprint reports resident bytes of DFC's compiled state
// (engine.Sizer).
func (m *Matcher) MemoryFootprint() int {
	return m.fs.SizeBytes() + m.verifier.MemoryFootprint()
}

// Scan runs DFC over input: for every position, probe the initial filter;
// on a hit, consult the per-family filters and verify inline.
func (m *Matcher) Scan(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	if c != nil {
		c.BytesScanned += uint64(len(input))
	}
	n := len(input)
	fs := m.fs
	for i := 0; i+1 < n; i++ {
		idx := bitarr.Index2(input[i], input[i+1])
		if c != nil {
			c.Filter1Probes++
		}
		if !fs.Initial.Test(idx) {
			continue
		}
		m.initialHit(input, i, n, c, emit)
	}
	// Final byte: only 1-byte patterns can still match there.
	if n > 0 && fs.HasLen1 {
		m.verifier.VerifyShortAt(input, n-1, c, emit)
	}
}

// initialHit is DFC's inline continuation after an initial-filter hit:
// short patterns verify immediately against their direct-address tables
// (no further filtering exists for them in DFC); long patterns continue
// through the family filters.
func (m *Matcher) initialHit(input []byte, i, n int, c *metrics.Counters, emit patterns.EmitFunc) {
	fs := m.fs
	if fs.HasShort {
		if c != nil {
			c.ShortCandidates++
		}
		m.verifier.VerifyShortAt(input, i, c, emit)
	}
	if fs.HasLong && i+4 <= n {
		if c != nil {
			c.Filter2Probes++
		}
		idx := bitarr.Index2(input[i], input[i+1])
		if !fs.Long.Test(idx) {
			return
		}
		next := bitarr.Index2(input[i+2], input[i+3])
		if c != nil {
			c.Filter3Probes++
		}
		if fs.LongNext.Test(next) {
			if c != nil {
				c.LongCandidates++
			}
			m.verifier.VerifyLongAt(input, i, c, emit)
		}
	}
}

// VectorMatcher is Vector-DFC: the same filters and inline verification
// as DFC, but the initial-filter probes of W consecutive positions are
// executed as one vector gather; hit lanes are extracted with a movemask
// and then follow DFC's scalar path. This is the paper's "direct
// vectorization of the original DFC done by us". Like Matcher (and the
// vec.Engine it emulates registers with), it holds no mutable scan
// state, so concurrent Scans are safe.
type VectorMatcher struct {
	set      *patterns.Set
	fs       *filters.DFCSet
	verifier *hashtab.Verifier
	eng      *vec.Engine
}

// BuildVector compiles a Vector-DFC matcher with width w lanes
// (0 selects 8, the AVX2 width).
func BuildVector(set *patterns.Set, w int) *VectorMatcher {
	if w == 0 {
		w = 8
	}
	return &VectorMatcher{
		set:      set,
		fs:       filters.BuildDFC(set),
		verifier: hashtab.Build(set),
		eng:      vec.New(w),
	}
}

// Width returns the vector width in lanes.
func (m *VectorMatcher) Width() int { return m.eng.Width() }

// MemoryFootprint reports resident bytes of Vector-DFC's compiled state
// (engine.Sizer).
func (m *VectorMatcher) MemoryFootprint() int {
	return m.fs.SizeBytes() + m.verifier.MemoryFootprint()
}

// NewScratch returns nil: Vector-DFC keeps no mutable scan state
// (engine.Engine).
func (m *VectorMatcher) NewScratch() engine.Scratch { return nil }

// ScanScratch scans input, ignoring scr (engine.Engine).
func (m *VectorMatcher) ScanScratch(_ engine.Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.Scan(input, c, emit)
}

// Scan runs Vector-DFC over input.
func (m *VectorMatcher) Scan(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	if c != nil {
		c.BytesScanned += uint64(len(input))
	}
	n := len(input)
	fs := m.fs
	eng := m.eng
	w := eng.Width()
	initial := fs.Initial.Bytes()

	i := 0
	for ; i+w+1 <= n; i += w {
		// W 2-byte windows, one gather over the initial filter's bytes,
		// then a movemask of the selected bits.
		idx := eng.Windows2(input, i)
		byteIdx := eng.ShiftRightConst(idx, 3)
		words := eng.GatherU8(initial, byteIdx)
		hits := eng.TestBit(words, eng.AndConst(idx, 7))
		if c != nil {
			c.VectorIters++
			c.Gathers++
			c.Filter1Probes += uint64(w)
		}
		if !hits.Any() {
			continue
		}
		// Inline (scalar) continuation per hit lane — DFC's structure.
		base := i
		hits.ForEach(func(lane int) {
			pos := base + lane
			m.scalarTail(input, pos, idx[lane], c, emit)
		})
	}
	// Scalar tail for the remaining positions.
	for ; i+1 < n; i++ {
		idx := bitarr.Index2(input[i], input[i+1])
		if c != nil {
			c.Filter1Probes++
		}
		if fs.Initial.Test(idx) {
			m.scalarTail(input, i, idx, c, emit)
		}
	}
	if n > 0 && fs.HasLen1 {
		m.verifier.VerifyShortAt(input, n-1, c, emit)
	}
}

// scalarTail is DFC's per-position continuation after an initial-filter
// hit: family filters, progressive filter, inline verification.
func (m *VectorMatcher) scalarTail(input []byte, i int, idx uint32, c *metrics.Counters, emit patterns.EmitFunc) {
	fs := m.fs
	n := len(input)
	if fs.HasShort {
		if c != nil {
			c.ShortCandidates++
		}
		m.verifier.VerifyShortAt(input, i, c, emit)
	}
	if fs.HasLong && i+4 <= n {
		if c != nil {
			c.Filter2Probes++
		}
		if !fs.Long.Test(idx) {
			return
		}
		next := bitarr.Index2(input[i+2], input[i+3])
		if c != nil {
			c.Filter3Probes++
		}
		if fs.LongNext.Test(next) {
			if c != nil {
				c.LongCandidates++
			}
			m.verifier.VerifyLongAt(input, i, c, emit)
		}
	}
}

package core

import (
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/vec"
)

// SPatch is the scalar algorithm of §IV-A: DFC's filtering redesigned for
// realistic traffic (dedicated short-pattern filter, 4-byte corroboration
// for long patterns) and restructured into separate filtering and
// verification rounds. The compiled matcher is immutable; scans carry
// their working memory in a Scratch, so one SPatch may be shared by any
// number of goroutines each scanning with its own Scratch.
type SPatch struct {
	common
}

// Options configures S-PATCH construction.
type Options struct {
	// Filter3Log2Bits sizes filter 3 (2^n bits); 0 selects the 16 KB
	// default. Larger filters collide less but crowd the cache.
	Filter3Log2Bits uint
	// ChunkSize is the filtering-round granularity; 0 selects 64 KB.
	ChunkSize int
	// NoAccel disables the skip-loop acceleration layer (fused.go),
	// forcing the plain probe loops. Ablation/benchmark switch.
	NoAccel bool
	// ForceKernel pins the extract-loop kernel instead of the CPUID
	// auto-dispatch (see core.VOptions.ForceKernel).
	ForceKernel vec.KernelID
}

// NewSPatch compiles the pattern set: the split probe chain in the
// fused kernels and the scalar chain as the lane-exact rendition.
func NewSPatch(set *patterns.Set, opt Options) *SPatch {
	m := &SPatch{common: newCommon(set, opt.Filter3Log2Bits, opt.ChunkSize, opt.ForceKernel)}
	m.noAccel = opt.NoAccel
	m.split = true
	m.exactRange = m.scalarRange
	return m
}

// scalarRange is S-PATCH's lane-exact filtering rendition over positions
// [start, end): the per-position scalar chain of Algorithm 1, counting
// every probe. It runs only under Counters.LaneExact, so c is never nil;
// S-PATCH has no no-store mode and ignores stores.
func (m *SPatch) scalarRange(scr *Scratch, input []byte, start, end int, c *metrics.Counters, _ bool) {
	n := len(input)
	for i := start; i < end; i++ {
		m.scalarFilterPos(scr, input, i, n, c)
	}
}

// FilterOnly runs only the filtering rounds over the whole input and
// returns copies of the accumulated candidate positions. It is the
// "S-PATCH-filtering" measurement of Fig. 6.
func (m *SPatch) FilterOnly(input []byte, c *metrics.Counters) (short, long []int32) {
	return m.filterOnly(input, c, true)
}

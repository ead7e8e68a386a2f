package core

import (
	"vpatch/internal/engine"
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

	// scr backs the scratch-less Scan/FilterOnly convenience methods,
	// which therefore remain single-goroutine (use ScanScratch with
	// per-goroutine scratches for concurrent scans). Allocated lazily so
	// engines scanned only through sessions never pay for it.
	scr *Scratch
}

var _ engine.Engine = (*SPatch)(nil)

// Options configures S-PATCH construction.
type Options struct {
	// Filter3Log2Bits sizes filter 3 (2^n bits); 0 selects the 16 KB
	// default. Larger filters collide less but crowd the cache.
	Filter3Log2Bits uint
	// ChunkSize is the filtering-round granularity; 0 selects 64 KB.
	ChunkSize int
	// NoAccel disables the skip-loop acceleration layer (fused.go),
	// forcing the plain probe loops. Ablation/benchmark switch; not
	// serialized.
	NoAccel bool
	// ForceKernel pins the extract-loop kernel instead of the CPUID
	// auto-dispatch (see core.VOptions.ForceKernel).
	ForceKernel vec.KernelID
}

// NewSPatch compiles the pattern set.
func NewSPatch(set *patterns.Set, opt Options) *SPatch {
	m := &SPatch{common: newCommon(set, opt.Filter3Log2Bits, opt.ChunkSize, opt.ForceKernel)}
	m.noAccel = opt.NoAccel
	m.split = true
	return m
}

// builtinScratch lazily allocates the scratch behind the scratch-less
// convenience methods.
func (m *SPatch) builtinScratch() *Scratch {
	if m.scr == nil {
		m.scr = NewScratch()
	}
	return m.scr
}

// NewScratch allocates per-goroutine scan state (engine.Engine).
func (m *SPatch) NewScratch() engine.Scratch { return NewScratch() }

// ScanScratch scans input using scr as working memory. Calls with
// distinct scratches may run concurrently (engine.Engine).
func (m *SPatch) ScanScratch(scr engine.Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.scan(scr.(*Scratch), input, c, emit)
}

// Scan reports every occurrence of every pattern in input. c and emit may
// be nil. Scan uses the matcher's built-in scratch and therefore must not
// be called from multiple goroutines at once; use ScanScratch for that.
func (m *SPatch) Scan(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.scan(m.builtinScratch(), input, c, emit)
}

func (m *SPatch) scan(scr *Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	var sw metrics.Stopwatch
	if c != nil {
		c.BytesScanned += uint64(len(input))
		sw = metrics.Start()
	}
	n := len(input)
	for start := 0; start < n; start += m.chunk {
		end := start + m.chunk
		if end > n {
			end = n
		}
		m.filterChunk(scr, input, start, end, c)
		if c != nil {
			c.FilteringNs += sw.Lap()
		}
		m.verifyCandidates(scr, input, c, emit)
		if c != nil {
			c.VerifyNs += sw.Lap()
		}
	}
}

// filterChunk runs the filtering round over positions [start, end),
// filling the candidate arrays. Production scans, with or without
// counters, take the fused kernel (fused.go) — skip loop plus SWAR probe
// chain with S-PATCH's split filter-1/filter-2 probes; runs that ask for
// exact probe accounting (Counters.LaneExact) keep the per-position
// scalar chain, skipping ahead of provably-impossible positions with the
// acceleration table and counting every probe and skip.
func (m *SPatch) filterChunk(scr *Scratch, input []byte, start, end int, c *metrics.Counters) {
	scr.aShort = scr.aShort[:0]
	scr.aLong = scr.aLong[:0]
	if c == nil || !c.LaneExact {
		m.fusedRange(scr, input, start, end, c, true)
		m.recordCandidates(scr, c)
		return
	}
	n := len(input)
	t := m.accel
	useAccel := t != nil && t.Enabled() && !m.noAccel
	// Window-viability skipping needs a full 2-byte window; the final
	// byte (HasLen1 special case) always reaches the scalar chain.
	skipEnd := end
	if n-1 < skipEnd {
		skipEnd = n - 1
	}
	for i := start; i < end; i++ {
		if useAccel && i < skipEnd && !t.ViableAt(input, i) {
			j := t.Next(input, i+1, skipEnd)
			c.AccelChances++
			c.SkippedBytes += uint64(j - i)
			if j-i >= 8 {
				c.AccelRuns++
			}
			i = j
			if i >= end {
				break
			}
		}
		m.scalarFilterPos(scr, input, i, n, c)
	}
	m.recordCandidates(scr, c)
}

// FilterOnly runs only the filtering rounds over the whole input and
// returns copies of the accumulated candidate positions. It is the
// "S-PATCH-filtering" measurement of Fig. 6.
func (m *SPatch) FilterOnly(input []byte, c *metrics.Counters) (short, long []int32) {
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
		var sw metrics.Stopwatch
		if c != nil {
			sw = metrics.Start()
		}
		m.filterChunk(scr, input, start, end, c)
		if c != nil {
			c.FilteringNs += sw.Stop()
		}
		short = append(short, scr.aShort...)
		long = append(long, scr.aLong...)
	}
	return short, long
}

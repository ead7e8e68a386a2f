package core

import (
	"vpatch/internal/bitarr"
	"vpatch/internal/engine"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/vec"
)

// VPatch is the vectorized algorithm of §IV-B. Its filtering round
// processes W input positions per step (Algorithm 2):
//
//  1. load raw input and shuffle it into W 2-byte sliding windows;
//  2. one gather on the *merged* filter-1/filter-2 memory brings both
//     filters' state for all W windows into the register (Fig. 3);
//  3. a movemask of the filter-1 bits stores hit positions into A_short;
//  4. if any lane passed filter 2, the 4-byte windows are built and
//     hashed *speculatively for all lanes*, one more gather probes
//     filter 3, and the result is masked by the filter-2 hits before
//     storing into A_long (the paper found masking cheaper than
//     compacting the register);
//  5. the main loop is unrolled 2x so the second block's gather can
//     overlap the first block's mask arithmetic.
//
// Verification is identical to S-PATCH's second round. Every deviation
// from this recipe is available as an ablation switch in VOptions.
//
// Like SPatch, the compiled matcher is immutable and all per-scan state
// lives in a Scratch, so one VPatch serves concurrent per-goroutine
// scratches.
type VPatch struct {
	common
	eng *vec.Engine
	opt VOptions

	// scr backs the scratch-less Scan/FilterOnly convenience methods
	// (single-goroutine; use ScanScratch for concurrent scans).
	// Allocated lazily so engines scanned only through sessions never
	// pay for it.
	scr *Scratch
}

var _ engine.Engine = (*VPatch)(nil)

// VOptions configures V-PATCH construction. The zero value is the
// paper's configuration at AVX2 width.
type VOptions struct {
	// Width is the register width in 32-bit lanes: 8 (AVX2/Haswell,
	// default) or 16 (Xeon Phi); 4 is also supported.
	Width int
	// Filter3Log2Bits sizes filter 3; 0 selects the 16 KB default.
	Filter3Log2Bits uint
	// ChunkSize is the filtering-round granularity; 0 selects 64 KB.
	ChunkSize int

	// Ablation switches (all default to the paper's design):
	// NoFilterMerge probes filters 1 and 2 with two separate gathers
	// instead of one merged gather.
	NoFilterMerge bool
	// NoUnroll disables the 2x main-loop unroll.
	NoUnroll bool
	// BranchyFilter3 replaces the speculative all-lane filter-3
	// evaluation with a per-active-lane scalar loop (the alternative the
	// paper rejected).
	BranchyFilter3 bool
	// ForceEngine routes every scan through the explicit vector engine.
	// By default, scans (paper configuration, with or without counters)
	// use a fused rendition of the same computation — merged filter word
	// fetch + speculative filter 3, lane at a time — because Go cannot
	// express the register ops natively and the per-op emulation
	// overhead would otherwise swamp the measurement; callers that need
	// the engine's lane-exact event counts ask per scan with
	// Counters.LaneExact. Candidate output is bit-identical either way
	// (tested). ForceEngine also disables the acceleration layer, making
	// it the reference rendition the accelerated paths are
	// property-tested against.
	ForceEngine bool
	// NoAccel disables the skip-loop acceleration layer (fused.go),
	// forcing the plain probe kernels. Ablation/benchmark switch; not
	// serialized (databases load with acceleration rebuilt and on).
	NoAccel bool
	// ForceKernel pins the extract-loop kernel instead of the CPUID
	// auto-dispatch (vec.KernelAuto). A kernel the host cannot run
	// degrades to SWAR — the public API validates availability before
	// construction. Host state, not serialized: databases re-dispatch
	// on the loading host.
	ForceKernel vec.KernelID
}

// NewVPatch compiles the pattern set.
func NewVPatch(set *patterns.Set, opt VOptions) *VPatch {
	if opt.Width == 0 {
		opt.Width = 8
	}
	m := &VPatch{
		common: newCommon(set, opt.Filter3Log2Bits, opt.ChunkSize, opt.ForceKernel),
		eng:    vec.New(opt.Width),
		opt:    opt,
	}
	m.noAccel = opt.NoAccel
	return m
}

// builtinScratch lazily allocates the scratch behind the scratch-less
// convenience methods.
func (m *VPatch) builtinScratch() *Scratch {
	if m.scr == nil {
		m.scr = NewScratch()
	}
	return m.scr
}

// Width returns the vector width in lanes.
func (m *VPatch) Width() int { return m.eng.Width() }

// NewScratch allocates per-goroutine scan state (engine.Engine).
func (m *VPatch) NewScratch() engine.Scratch { return NewScratch() }

// ScanScratch scans input using scr as working memory. Calls with
// distinct scratches may run concurrently (engine.Engine).
func (m *VPatch) ScanScratch(scr engine.Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.scan(scr.(*Scratch), input, c, emit)
}

// Scan reports every occurrence of every pattern in input. c and emit may
// be nil. Scan uses the matcher's built-in scratch and therefore must not
// be called from multiple goroutines at once; use ScanScratch for that.
func (m *VPatch) Scan(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.scan(m.builtinScratch(), input, c, emit)
}

// laneExact reports whether a scan must run the explicit vector engine:
// the caller asked for lane-exact accounting (Counters.LaneExact), or
// the matcher was built as the reference rendition or with an ablation
// the fused kernels do not express. Attaching plain counters never
// selects it.
func (m *VPatch) laneExact(c *metrics.Counters) bool {
	return m.opt.ForceEngine || m.opt.NoFilterMerge || m.opt.BranchyFilter3 || (c != nil && c.LaneExact)
}

func (m *VPatch) scan(scr *Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
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
		m.filterChunk(scr, input, start, end, c, true)
		if c != nil {
			c.FilteringNs += sw.Lap()
		}
		m.verifyCandidates(scr, input, c, emit)
		if c != nil {
			c.VerifyNs += sw.Lap()
		}
	}
}

// FilterOnly runs only the filtering rounds. With stores=true candidate
// positions are accumulated and returned (Fig. 6 "V-PATCH-filtering+
// stores"); with stores=false the store step is suppressed and only
// counts are returned (Fig. 6 "V-PATCH-filtering").
func (m *VPatch) FilterOnly(input []byte, c *metrics.Counters, stores bool) (short, long []int32) {
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
		m.filterChunk(scr, input, start, end, c, stores)
		if c != nil {
			c.FilteringNs += sw.Stop()
		}
		if stores {
			short = append(short, scr.aShort...)
			long = append(long, scr.aLong...)
		}
	}
	return short, long
}

// filterChunk runs the vectorized filtering round over positions
// [start, end). Reads may extend up to 3 bytes past end (within input)
// because 4-byte windows straddle the chunk boundary, exactly like the
// scalar algorithm.
//
// Production scans, with or without counters, take the fused kernel
// (fused.go): the same merged-word + speculative filter-3 computation
// with the skip-loop acceleration layer in front. Lane-exact runs (see
// laneExact) execute the explicit vector engine; unless ForceEngine pins
// the paper-faithful reference rendition, they skip ahead of each vector
// block with the same acceleration table, counting
// SkippedBytes/AccelChances/AccelRuns per skip invocation for the
// density story and the cost model. Candidate output is bit-identical on
// every path (tested).
func (m *VPatch) filterChunk(scr *Scratch, input []byte, start, end int, c *metrics.Counters, stores bool) {
	scr.aShort = scr.aShort[:0]
	scr.aLong = scr.aLong[:0]
	if !m.laneExact(c) {
		m.fusedRange(scr, input, start, end, c, stores)
		m.recordCandidates(scr, c)
		return
	}
	n := len(input)
	w := m.eng.Width()

	// Last vector base: all W lanes inside the chunk, and every lane's
	// 4-byte window inside the input.
	vecEnd := end - w
	if lim := n - w - 3; lim < vecEnd {
		vecEnd = lim
	}
	i := start
	if t := m.accel; t != nil && t.Enabled() && !m.noAccel && !m.opt.ForceEngine {
		// Accelerated drive loop: jump each vector block to the next
		// viable start position; the skipped positions cannot produce
		// candidates (their windows fail every loop-head filter).
		for i <= vecEnd {
			if !t.ViableAt(input, i) {
				j := t.Next(input, i+1, vecEnd+1)
				if c != nil {
					c.AccelChances++
					c.SkippedBytes += uint64(j - i)
					if j-i >= 8 {
						c.AccelRuns++
					}
				}
				i = j
				if i > vecEnd {
					break
				}
			}
			m.filterBlock(scr, input, i, c, stores)
			i += w
		}
	} else {
		if !m.opt.NoUnroll {
			// 2x unroll: two W-position blocks per iteration (two
			// independent register pipelines, paper §IV-B last paragraph).
			for ; i+w <= vecEnd; i += 2 * w {
				m.filterBlock(scr, input, i, c, stores)
				m.filterBlock(scr, input, i+w, c, stores)
			}
		}
		for ; i <= vecEnd; i += w {
			m.filterBlock(scr, input, i, c, stores)
		}
	}
	// Scalar tail: the final sub-register positions of the chunk.
	for ; i < end; i++ {
		m.scalarFilterPos(scr, input, i, n, c)
	}
	m.recordCandidates(scr, c)
}

// filterBlock filters the W positions base..base+W-1 (Algorithm 2 body).
func (m *VPatch) filterBlock(scr *Scratch, input []byte, base int, c *metrics.Counters, stores bool) {
	eng := m.eng
	fs := m.fs
	w := eng.Width()

	// Lines 7-8: raw load + shuffle into 2-byte windows.
	idx := eng.Windows2(input, base)
	byteIdx := eng.ShiftRightConst(idx, 3)
	bit := eng.AndConst(idx, 7)

	// Lines 9 & 13, merged (Fig. 3): one gather yields both filters.
	var hit1, hit2 vec.Mask
	if !m.opt.NoFilterMerge {
		words := eng.GatherU16(fs.Merged.Words(), byteIdx)
		hit1 = eng.TestBit(words, bit)
		hit2 = eng.TestBit(words, eng.AddConst(bit, 8))
		if c != nil {
			c.Gathers++
			c.MergedGathers++
		}
	} else {
		w1 := eng.GatherU8(fs.Filter1.Bytes(), byteIdx)
		w2 := eng.GatherU8(fs.Filter2.Bytes(), byteIdx)
		hit1 = eng.TestBit(w1, bit)
		hit2 = eng.TestBit(w2, bit)
		if c != nil {
			c.Gathers += 2
		}
	}
	if c != nil {
		c.VectorIters++
		c.Filter1Probes += uint64(w)
		c.Filter2Probes += uint64(w)
	}

	// Lines 10-12: store filter-1 hits into A_short.
	if hit1.Any() {
		if stores {
			scr.aShort = eng.CompressStore(scr.aShort, int32(base), hit1)
		} else {
			scr.sink ^= uint32(hit1)
		}
	}

	// Lines 14-20: speculative filter 3, masked by the filter-2 hits.
	if !hit2.Any() {
		return
	}
	if c != nil {
		c.Filter3Blocks++
		c.Filter3UsefulLanes += uint64(hit2.Count())
	}
	var hit3 vec.Mask
	if m.opt.BranchyFilter3 {
		// The rejected alternative: per-lane scalar probing of only the
		// useful lanes.
		hit2.ForEach(func(lane int) {
			if c != nil {
				c.Filter3Probes++
			}
			if fs.Filter3.Test4(bitarr.Load4(input[base+lane:])) {
				hit3 |= 1 << lane
			}
		})
	} else {
		// Speculative: hash and gather for all W lanes, then mask.
		vals := eng.Windows4(input, base)
		keys := eng.ShiftRightConst(eng.MulConst(vals, bitarr.MulHashConst), fs.Filter3.Shift())
		f3words := eng.GatherU8(fs.Filter3.Bytes(), eng.ShiftRightConst(keys, 3))
		hit3 = eng.TestBit(f3words, eng.AndConst(keys, 7)) & hit2
		if c != nil {
			c.Gathers++
			c.Filter3Probes += uint64(w)
		}
	}
	if hit3.Any() {
		if stores {
			scr.aLong = eng.CompressStore(scr.aLong, int32(base), hit3)
		} else {
			scr.sink ^= uint32(hit3) << 16
		}
	}
}

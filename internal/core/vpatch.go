package core

import (
	"vpatch/internal/bitarr"
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
//  5. the paper unrolls the main loop 2x so the second block's gather
//     overlaps the first block's mask arithmetic (a hardware schedule
//     the emulation does not model: it changes no candidate or count).
//
// Verification is identical to S-PATCH's second round. Steps 2 and 4
// have ablation switches in VOptions.
//
// Like SPatch, the compiled matcher is immutable and all per-scan state
// lives in a Scratch, so one VPatch serves concurrent per-goroutine
// scratches.
type VPatch struct {
	common
	eng *vec.Engine
	opt VOptions
}

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

	// Ablation switches (all default to the paper's design); either one
	// makes every scan take the explicit vector engine.
	// NoFilterMerge probes filters 1 and 2 with two separate gathers
	// instead of one merged gather.
	NoFilterMerge bool
	// BranchyFilter3 replaces the speculative all-lane filter-3
	// evaluation with a per-active-lane scalar loop (the alternative the
	// paper rejected).
	BranchyFilter3 bool
	// NoAccel disables the skip-loop acceleration layer (fused.go),
	// forcing the plain probe kernels: the one reference build. The
	// explicit engine's lane-exact counts are a per-scan request
	// (Counters.LaneExact), not a build.
	NoAccel bool
	// ForceKernel pins the extract-loop kernel instead of the CPUID
	// auto-dispatch (vec.KernelAuto). A kernel the host cannot run
	// degrades to SWAR — the public API validates availability before
	// construction.
	ForceKernel vec.KernelID
}

// NewVPatch compiles the pattern set: the merged probe chain in the
// fused kernels and the explicit vector engine as the lane-exact
// rendition, which every scan takes when opt sets an ablation the fused
// kernels do not express.
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
	m.exactRange = m.vectorRange
	m.pinExact = opt.NoFilterMerge || opt.BranchyFilter3
	return m
}

// Width returns the vector width in lanes.
func (m *VPatch) Width() int { return m.eng.Width() }

// FilterOnly runs only the filtering rounds. With stores=true candidate
// positions are accumulated and returned (Fig. 6 "V-PATCH-filtering+
// stores"); with stores=false the store step is suppressed and only
// counts are returned (Fig. 6 "V-PATCH-filtering").
func (m *VPatch) FilterOnly(input []byte, c *metrics.Counters, stores bool) (short, long []int32) {
	return m.filterOnly(input, c, stores)
}

// vectorRange is V-PATCH's lane-exact filtering rendition over positions
// [start, end): the explicit vector engine, W positions per block
// (Algorithm 2), then the scalar chain for the sub-register tail.
// Reads may extend up to 3 bytes past end (within input) because 4-byte
// windows straddle the chunk boundary, exactly like the scalar
// algorithm. Candidate output is bit-identical to the fused kernels'
// (tested).
func (m *VPatch) vectorRange(scr *Scratch, input []byte, start, end int, c *metrics.Counters, stores bool) {
	n := len(input)
	w := m.eng.Width()

	// Last vector base: all W lanes inside the chunk, and every lane's
	// 4-byte window inside the input.
	vecEnd := end - w
	if lim := n - w - 3; lim < vecEnd {
		vecEnd = lim
	}
	i := start
	for ; i <= vecEnd; i += w {
		m.filterBlock(scr, input, i, c, stores)
	}
	// Scalar tail: the final sub-register positions of the chunk.
	for ; i < end; i++ {
		m.scalarFilterPos(scr, input, i, n, c)
	}
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

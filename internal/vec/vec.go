// Package vec is a software rendition of the SIMD execution model the paper
// relies on: W-lane vector registers of 32-bit elements, the gather
// instruction (fetch from W non-contiguous memory locations), the
// load+shuffle that turns raw input into sliding windows (fused into one
// step), and movemask (condense per-lane predicates into a scalar bit
// mask).
//
// Pure Go exposes no SIMD intrinsics, so every operation is implemented as
// a short, branch-free loop over the active lanes. The point of the layer is
// architectural fidelity, not hardware parallelism: V-PATCH written against
// this package has exactly the paper's instruction structure (one merged
// gather per W windows, speculative masked filter-3, movemask-driven
// candidate extraction), its lane-occupancy statistics are
// measurable exactly as defined in Fig. 5b, and its output is verifiable
// lane-for-lane against the scalar algorithm. internal/costmodel converts
// the instruction counts into modeled Haswell / Xeon-Phi throughput.
package vec

import (
	"fmt"
	"math/bits"
)

// MaxLanes is the widest supported register: 16 x 32-bit lanes = 512 bits,
// the Xeon-Phi configuration.
const MaxLanes = 16

// Supported register widths in 32-bit lanes:
//
//	4  = SSE/128-bit
//	8  = AVX2/256-bit (Haswell, the paper's commodity platform)
//	16 = AVX-512/Xeon-Phi 512-bit
var SupportedWidths = []int{4, 8, 16}

// U32 is a vector register of up to MaxLanes 32-bit elements. Engines
// configured with W < MaxLanes only use the first W lanes.
type U32 [MaxLanes]uint32

// Mask is a per-lane predicate: bit i set means lane i is active.
type Mask uint32

// Any reports whether at least one lane is active.
func (m Mask) Any() bool { return m != 0 }

// Count returns the number of active lanes — the paper's "useful elements
// in vector register" metric (Fig. 5b).
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// ForEach calls fn for every active lane, in ascending lane order. It is
// the emulation of the scalar extraction loop that follows a movemask.
func (m Mask) ForEach(fn func(lane int)) {
	for w := uint32(m); w != 0; w &= w - 1 {
		fn(bits.TrailingZeros32(w))
	}
}

// Engine executes vector operations at a fixed register width.
// The zero value is not usable; construct with New.
type Engine struct {
	w int
}

// New returns an Engine with w lanes. w must be one of SupportedWidths.
func New(w int) *Engine {
	for _, s := range SupportedWidths {
		if w == s {
			return &Engine{w: w}
		}
	}
	panic(fmt.Sprintf("vec: unsupported width %d (want one of %v)", w, SupportedWidths))
}

// Width returns the number of lanes.
func (e *Engine) Width() int { return e.w }

// Windows2 is the fused load+shuffle (Algorithm 2, line 7, and the
// shuffle of Fig. 2) producing W 2-byte sliding windows starting at
// input[base]: lane i = input[base+i] | input[base+i+1]<<8.
func (e *Engine) Windows2(input []byte, base int) U32 {
	var r U32
	_ = input[base+e.w] // one bounds check for the whole register
	for i := 0; i < e.w; i++ {
		r[i] = uint32(input[base+i]) | uint32(input[base+i+1])<<8
	}
	return r
}

// Windows4 is the fused load+shuffle producing W 4-byte sliding windows:
// lane i is the little-endian 32-bit load of input[base+i..base+i+3].
func (e *Engine) Windows4(input []byte, base int) U32 {
	var r U32
	_ = input[base+e.w+2]
	for i := 0; i < e.w; i++ {
		r[i] = uint32(input[base+i]) | uint32(input[base+i+1])<<8 |
			uint32(input[base+i+2])<<16 | uint32(input[base+i+3])<<24
	}
	return r
}

// GatherU8 fetches table[idx[i]] into lane i — the vpgatherdd access
// pattern restricted to byte tables. Indexes are the caller's
// responsibility to keep in range (filters mask them beforehand).
func (e *Engine) GatherU8(table []byte, idx U32) U32 {
	var r U32
	for i := 0; i < e.w; i++ {
		r[i] = uint32(table[idx[i]])
	}
	return r
}

// GatherU16 fetches 16-bit words: the merged-filter gather (Fig. 3) that
// brings filter-1 and filter-2 state into the register simultaneously.
func (e *Engine) GatherU16(table []uint16, idx U32) U32 {
	var r U32
	for i := 0; i < e.w; i++ {
		r[i] = uint32(table[idx[i]])
	}
	return r
}

// ShiftRightConst returns v >> k per lane.
func (e *Engine) ShiftRightConst(v U32, k uint32) U32 {
	var r U32
	for i := 0; i < e.w; i++ {
		r[i] = v[i] >> k
	}
	return r
}

// AndConst returns v & c per lane.
func (e *Engine) AndConst(v U32, c uint32) U32 {
	var r U32
	for i := 0; i < e.w; i++ {
		r[i] = v[i] & c
	}
	return r
}

// AddConst returns v + c per lane (e.g. selecting the merged filter's
// high bit plane by offsetting the bit position by 8).
func (e *Engine) AddConst(v U32, c uint32) U32 {
	var r U32
	for i := 0; i < e.w; i++ {
		r[i] = v[i] + c
	}
	return r
}

// MulConst returns v * c per lane (the multiplicative hash step).
func (e *Engine) MulConst(v U32, c uint32) U32 {
	var r U32
	for i := 0; i < e.w; i++ {
		r[i] = v[i] * c
	}
	return r
}

// TestBit extracts bit (pos[i] & 7) of word[i] per lane and returns the
// movemask of the results: the filter membership test. A second bit plane
// (e.g. the merged filter's high byte) is selected by adding 8 to pos.
func (e *Engine) TestBit(word, pos U32) Mask {
	var m Mask
	for i := 0; i < e.w; i++ {
		m |= Mask((word[i]>>(pos[i]&15))&1) << i
	}
	return m
}

// CompressStore appends base+lane for every active lane of m to dst and
// returns the extended slice. This is the "store positions of matches"
// step (Algorithm 2, lines 11 and 19): a movemask followed by a scalar
// extraction loop over set bits.
func (e *Engine) CompressStore(dst []int32, base int32, m Mask) []int32 {
	for w := uint32(m); w != 0; w &= w - 1 {
		dst = append(dst, base+int32(bits.TrailingZeros32(w)))
	}
	return dst
}

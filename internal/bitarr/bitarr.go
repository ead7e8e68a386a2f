// Package bitarr provides the cache-resident bit-array filters used by the
// DFC, S-PATCH and V-PATCH pattern-matching algorithms: plain bit arrays,
// 2-byte-indexed direct filters, the merged (interleaved) filter layout used
// by V-PATCH's filter-merging optimization, and the multiplicative 4-byte
// hash filter (filter 3 in the paper).
//
// All filters are byte-granular internally: a lookup fetches one byte (or,
// for the merged filter, one 16-bit word) and then selects one bit. This is
// the layout the paper requires so that a SIMD gather can fetch filter state
// for W lanes at once.
package bitarr

import (
	"fmt"
	"math/bits"
)

// BitArray is a fixed-capacity bit array backed by a byte slice. The number
// of bits is always a power of two so that indexes can be reduced with a
// mask rather than a modulo.
type BitArray struct {
	bytes   []byte
	idxMask uint32 // number of bits - 1
}

// New returns a BitArray with 2^log2bits bits, all clear.
// log2bits must be in [3, 32].
func New(log2bits uint) *BitArray {
	if log2bits < 3 || log2bits > 32 {
		panic(fmt.Sprintf("bitarr: log2bits %d out of range [3,32]", log2bits))
	}
	return &BitArray{
		bytes:   make([]byte, 1<<(log2bits-3)),
		idxMask: uint32(1<<log2bits - 1),
	}
}

// Bits returns the capacity in bits.
func (b *BitArray) Bits() int { return len(b.bytes) * 8 }

// SizeBytes returns the memory footprint of the bit storage in bytes.
func (b *BitArray) SizeBytes() int { return len(b.bytes) }

// Set sets the bit at idx (reduced modulo the capacity).
func (b *BitArray) Set(idx uint32) {
	idx &= b.idxMask
	b.bytes[idx>>3] |= 1 << (idx & 7)
}

// Test reports whether the bit at idx is set (idx reduced modulo capacity).
func (b *BitArray) Test(idx uint32) bool {
	idx &= b.idxMask
	return b.bytes[idx>>3]&(1<<(idx&7)) != 0
}

// Bytes exposes the raw backing storage (read-only by convention). It is
// used by the vector layer to gather directly from the filter memory.
func (b *BitArray) Bytes() []byte { return b.bytes }

// Reset clears every bit.
func (b *BitArray) Reset() {
	for i := range b.bytes {
		b.bytes[i] = 0
	}
}

// PopCount returns the number of set bits.
func (b *BitArray) PopCount() int {
	n := 0
	for _, v := range b.bytes {
		n += bits.OnesCount8(v)
	}
	return n
}

// Index2 computes the canonical 2-byte window index used by the direct
// filters: little-endian combination of two consecutive input bytes.
func Index2(b0, b1 byte) uint32 { return uint32(b0) | uint32(b1)<<8 }

// Load4 computes the little-endian 32-bit value of four consecutive input
// bytes, the quantity hashed by filter 3.
func Load4(p []byte) uint32 {
	_ = p[3]
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

// DirectFilter16 is the paper's 8 KB direct filter: one bit for each of the
// 2^16 possible 2-byte windows.
type DirectFilter16 struct {
	BitArray
}

// NewDirectFilter16 returns an empty 2^16-bit (8 KB) direct filter.
func NewDirectFilter16() *DirectFilter16 {
	return &DirectFilter16{BitArray: *New(16)}
}

// AddPrefix2 marks the 2-byte window (b0,b1) as a possible pattern start.
func (f *DirectFilter16) AddPrefix2(b0, b1 byte) { f.Set(Index2(b0, b1)) }

// AddAllSecond marks every window whose first byte is b0. This is how
// 1-byte patterns are folded into a 2-byte filter (DFC §3.1): a 1-byte
// pattern "a" can start at any window "a?" regardless of the second byte.
func (f *DirectFilter16) AddAllSecond(b0 byte) {
	for b1 := 0; b1 < 256; b1++ {
		f.Set(Index2(b0, byte(b1)))
	}
}

// Test2 reports whether the window (b0,b1) may start a pattern.
func (f *DirectFilter16) Test2(b0, b1 byte) bool { return f.Test(Index2(b0, b1)) }

// MulHashConst is the Knuth multiplicative-hash constant (2654435761 =
// floor(2^32/phi)) used by filter 3 to reduce a 4-byte window to an index.
const MulHashConst = 2654435761

// HashFilter is filter 3 of S-PATCH: a bit array indexed by a multiplicative
// hash of a 4-byte window. Its size trades filtering rate (collisions)
// against cache footprint; the paper keeps it small enough for L1/L2.
type HashFilter struct {
	BitArray
	shift uint32 // 32 - log2(bits)
}

// NewHashFilter returns an empty hash filter with 2^log2bits bits.
// The paper-discussed sweet spot is 2^17 bits (16 KB); see the
// Filter3Size ablation bench.
func NewHashFilter(log2bits uint) *HashFilter {
	if log2bits < 3 || log2bits > 31 {
		panic(fmt.Sprintf("bitarr: hash filter log2bits %d out of range [3,31]", log2bits))
	}
	return &HashFilter{BitArray: *New(log2bits), shift: uint32(32 - log2bits)}
}

// HashIndex reduces a 4-byte little-endian window value to a filter index.
func (f *HashFilter) HashIndex(v uint32) uint32 { return (v * MulHashConst) >> f.shift }

// Shift returns the hash downshift (32 - log2(bits)); the vector layer
// needs it to compute indexes lane-wise.
func (f *HashFilter) Shift() uint32 { return f.shift }

// Add4 marks the 4-byte window value v.
func (f *HashFilter) Add4(v uint32) { f.Set(f.HashIndex(v)) }

// Test4 reports whether the 4-byte window value v may start a long pattern.
// False positives are possible (hash collisions); false negatives are not.
func (f *HashFilter) Test4(v uint32) bool { return f.Test(f.HashIndex(v)) }

// MergedFilter implements the paper's filter-merging optimization (Fig. 3):
// the storage bytes of filter 1 and filter 2 are interleaved so that a
// single (emulated) 16-bit gather fetches the state of both filters for one
// window index. Word k holds filter-1 byte k in its low half and filter-2
// byte k in its high half.
type MergedFilter struct {
	words   []uint16
	idxMask uint32 // bit-index mask (same domain as the source filters)
}

// NewMergedFilter interleaves two equal-sized byte-granular filters.
func NewMergedFilter(f1, f2 *BitArray) *MergedFilter {
	if f1.Bits() != f2.Bits() {
		panic("bitarr: merged filter requires equal-size filters")
	}
	m := &MergedFilter{
		words:   make([]uint16, len(f1.bytes)),
		idxMask: f1.idxMask,
	}
	for i := range f1.bytes {
		m.words[i] = uint16(f1.bytes[i]) | uint16(f2.bytes[i])<<8
	}
	return m
}

// Words exposes the raw interleaved storage for the vector gather.
func (m *MergedFilter) Words() []uint16 { return m.words }

// Test returns (filter1 bit, filter2 bit) for window index idx using a
// single word fetch — the scalar rendition of the merged gather.
func (m *MergedFilter) Test(idx uint32) (f1, f2 bool) {
	idx &= m.idxMask
	w := m.words[idx>>3]
	bit := idx & 7
	return w&(1<<bit) != 0, w&(1<<(bit+8)) != 0
}

// SizeBytes returns the memory footprint of the merged storage.
func (m *MergedFilter) SizeBytes() int { return 2 * len(m.words) }

package bitarr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSizes(t *testing.T) {
	cases := []struct {
		log2  uint
		bits  int
		bytes int
	}{
		{3, 8, 1},
		{10, 1024, 128},
		{16, 65536, 8192}, // the paper's 8 KB direct filter
		{17, 131072, 16384},
	}
	for _, c := range cases {
		b := New(c.log2)
		if b.Bits() != c.bits {
			t.Errorf("New(%d).Bits() = %d, want %d", c.log2, b.Bits(), c.bits)
		}
		if b.SizeBytes() != c.bytes {
			t.Errorf("New(%d).SizeBytes() = %d, want %d", c.log2, b.SizeBytes(), c.bytes)
		}
	}
}

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, log2 := range []uint{0, 2, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", log2)
				}
			}()
			New(log2)
		}()
	}
}

func TestSetTestClear(t *testing.T) {
	b := New(10)
	if b.Test(5) {
		t.Fatal("fresh array has bit 5 set")
	}
	b.Set(5)
	if !b.Test(5) {
		t.Fatal("Set(5) not visible")
	}
	if b.Test(4) || b.Test(6) {
		t.Fatal("Set(5) disturbed neighbours")
	}
	b.Reset()
	if b.Test(5) {
		t.Fatal("Reset did not clear bit 5")
	}
}

func TestIndexWrapsWithMask(t *testing.T) {
	b := New(10) // 1024 bits
	b.Set(1024 + 7)
	if !b.Test(7) {
		t.Fatal("index 1031 should wrap to 7")
	}
	if !b.Test(1024 + 7) {
		t.Fatal("Test must reduce the index the same way Set does")
	}
}

func TestPopCountAndFillRatio(t *testing.T) {
	b := New(8) // 256 bits
	if b.PopCount() != 0 {
		t.Fatal("fresh array has nonzero popcount")
	}
	for i := uint32(0); i < 64; i++ {
		b.Set(i * 4)
	}
	if got := b.PopCount(); got != 64 {
		t.Fatalf("PopCount = %d, want 64", got)
	}
	if got := float64(b.PopCount()) / float64(b.Bits()); got != 0.25 {
		t.Fatalf("fill ratio = %v, want 0.25", got)
	}
}

func TestSetIdempotent(t *testing.T) {
	b := New(8)
	b.Set(9)
	b.Set(9)
	if b.PopCount() != 1 {
		t.Fatalf("double Set changed popcount: %d", b.PopCount())
	}
}

func TestReset(t *testing.T) {
	b := New(8)
	for i := uint32(0); i < 256; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.PopCount() != 0 {
		t.Fatal("Reset left bits set")
	}
}

// The storage byte holding bits [8k, 8k+8) is the unit a gather fetches.
func TestByteAccess(t *testing.T) {
	b := New(8)
	b.Set(8)  // byte 1, bit 0
	b.Set(15) // byte 1, bit 7
	if got := b.Bytes()[1]; got != 0x81 {
		t.Fatalf("byte 1 = %#x, want 0x81", got)
	}
	if got := b.Bytes()[0]; got != 0 {
		t.Fatalf("byte 0 = %#x, want 0", got)
	}
}

func TestIndex2LittleEndian(t *testing.T) {
	if got := Index2(0x41, 0x42); got != 0x4241 {
		t.Fatalf("Index2(0x41,0x42) = %#x, want 0x4241", got)
	}
	if got := Index2(0xFF, 0xFF); got != 0xFFFF {
		t.Fatalf("Index2(0xFF,0xFF) = %#x, want 0xFFFF", got)
	}
}

func TestLoad4(t *testing.T) {
	if got := Load4([]byte{1, 2, 3, 4}); got != 0x04030201 {
		t.Fatalf("Load4 = %#x, want 0x04030201", got)
	}
}

func TestDirectFilter16(t *testing.T) {
	f := NewDirectFilter16()
	if f.SizeBytes() != 8192 {
		t.Fatalf("direct filter is %d bytes, want 8192 (8 KB per the paper)", f.SizeBytes())
	}
	f.AddPrefix2('G', 'E')
	if !f.Test2('G', 'E') {
		t.Fatal("GE prefix not found after AddPrefix2")
	}
	if f.Test2('E', 'G') {
		t.Fatal("filter must be order-sensitive")
	}
}

func TestDirectFilter16AddAllSecond(t *testing.T) {
	f := NewDirectFilter16()
	f.AddAllSecond('/')
	for b1 := 0; b1 < 256; b1++ {
		if !f.Test2('/', byte(b1)) {
			t.Fatalf("window ('/', %#x) not set by AddAllSecond", b1)
		}
	}
	if f.Test2('a', '/') {
		t.Fatal("AddAllSecond set an unrelated window")
	}
	if got := f.PopCount(); got != 256 {
		t.Fatalf("AddAllSecond set %d bits, want 256", got)
	}
}

func TestHashFilterNoFalseNegatives(t *testing.T) {
	f := NewHashFilter(12)
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint32, 200)
	for i := range vals {
		vals[i] = rng.Uint32()
		f.Add4(vals[i])
	}
	for _, v := range vals {
		if !f.Test4(v) {
			t.Fatalf("false negative for %#x", v)
		}
	}
}

func TestHashFilterIndexInRange(t *testing.T) {
	f := NewHashFilter(10)
	err := quick.Check(func(v uint32) bool {
		return f.HashIndex(v) < 1024
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHashFilterShift(t *testing.T) {
	f := NewHashFilter(17)
	if f.Shift() != 15 {
		t.Fatalf("Shift = %d, want 15", f.Shift())
	}
}

func TestHashFilterSelectivity(t *testing.T) {
	// With n entries in a m-bit filter, fill ratio must not exceed n/m
	// (collisions can only lower it) and random probes should mostly miss.
	f := NewHashFilter(16)
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	for i := 0; i < n; i++ {
		f.Add4(rng.Uint32())
	}
	if got := f.PopCount(); got > n {
		t.Fatalf("PopCount %d exceeds insertions %d", got, n)
	}
	hits := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if f.Test4(rng.Uint32()) {
			hits++
		}
	}
	// Expected hit rate ~ n/2^16 ≈ 1.5%; allow generous slack.
	if rate := float64(hits) / probes; rate > 0.05 {
		t.Fatalf("random probe hit rate %.3f too high for a 1000-entry filter", rate)
	}
}

func TestMergedFilterAgreesWithSources(t *testing.T) {
	f1 := New(16)
	f2 := New(16)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		f1.Set(rng.Uint32())
		f2.Set(rng.Uint32())
	}
	m := NewMergedFilter(f1, f2)
	for i := 0; i < 20000; i++ {
		idx := rng.Uint32() & 0xFFFF
		g1, g2 := m.Test(idx)
		if g1 != f1.Test(idx) || g2 != f2.Test(idx) {
			t.Fatalf("merged filter disagrees at idx %#x: got (%v,%v) want (%v,%v)",
				idx, g1, g2, f1.Test(idx), f2.Test(idx))
		}
	}
}

func TestMergedFilterWordLayout(t *testing.T) {
	f1 := New(16)
	f2 := New(16)
	f1.Set(3)  // byte 0 bit 3 of filter 1
	f2.Set(10) // byte 1 bit 2 of filter 2
	m := NewMergedFilter(f1, f2)
	if w := m.words[0]; w != 1<<3 {
		t.Fatalf("word 0 = %#x, want %#x", w, 1<<3)
	}
	if w := m.words[1]; w != 1<<(2+8) {
		t.Fatalf("word 1 = %#x, want %#x", w, 1<<(2+8))
	}
}

func TestMergedFilterSizeAndMask(t *testing.T) {
	f1 := New(16)
	f2 := New(16)
	m := NewMergedFilter(f1, f2)
	if m.SizeBytes() != 16384 {
		t.Fatalf("merged size %d, want 16384 (2 x 8 KB)", m.SizeBytes())
	}
	if m.idxMask != 0xFFFF {
		t.Fatalf("mask %#x, want 0xFFFF", m.idxMask)
	}
}

func TestMergedFilterSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched sizes did not panic")
		}
	}()
	NewMergedFilter(New(16), New(15))
}

func TestMergedFilterPropertyEquivalence(t *testing.T) {
	f1 := New(16)
	f2 := New(16)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		f1.Set(rng.Uint32())
		f2.Set(rng.Uint32())
	}
	m := NewMergedFilter(f1, f2)
	err := quick.Check(func(idx uint32) bool {
		g1, g2 := m.Test(idx)
		return g1 == f1.Test(idx) && g2 == f2.Test(idx)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDirectFilterTest(b *testing.B) {
	f := NewDirectFilter16()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		f.Set(rng.Uint32())
	}
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = f.Test(uint32(i))
	}
	_ = sink
}

func BenchmarkMergedFilterTest(b *testing.B) {
	f1 := New(16)
	f2 := New(16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		f1.Set(rng.Uint32())
		f2.Set(rng.Uint32())
	}
	m := NewMergedFilter(f1, f2)
	b.ResetTimer()
	var s1, s2 bool
	for i := 0; i < b.N; i++ {
		s1, s2 = m.Test(uint32(i))
	}
	_, _ = s1, s2
}

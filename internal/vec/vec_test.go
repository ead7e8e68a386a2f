package vec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func engines() []*Engine {
	return []*Engine{New(4), New(8), New(16)}
}

func TestNewWidths(t *testing.T) {
	for _, w := range SupportedWidths {
		e := New(w)
		if e.Width() != w {
			t.Errorf("New(%d).Width() = %d", w, e.Width())
		}
	}
}

func TestNewUnsupportedPanics(t *testing.T) {
	for _, w := range []int{0, 1, 2, 3, 5, 7, 9, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", w)
				}
			}()
			New(w)
		}()
	}
}

func TestMaskBasics(t *testing.T) {
	var m Mask
	if m.Any() {
		t.Fatal("zero mask reports Any")
	}
	m = 0b1011
	if !m.Any() || m.Count() != 3 {
		t.Fatalf("mask 0b1011: Any=%v Count=%d", m.Any(), m.Count())
	}
	var lanes []int
	m.ForEach(func(l int) { lanes = append(lanes, l) })
	want := []int{0, 1, 3}
	if len(lanes) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", lanes, want)
	}
	for i := range want {
		if lanes[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", lanes, want)
		}
	}
}

// lanes returns {base, base+1, ..., base+W-1}, a register of lane
// positions for the gather and arithmetic tests.
func lanes(e *Engine, base uint32) U32 {
	var r U32
	for i := 0; i < e.Width(); i++ {
		r[i] = base + uint32(i)
	}
	return r
}

func TestWindows2MatchesScalar(t *testing.T) {
	input := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	for _, e := range engines() {
		r := e.Windows2(input, 3)
		for i := 0; i < e.Width(); i++ {
			want := uint32(input[3+i]) | uint32(input[4+i])<<8
			if r[i] != want {
				t.Fatalf("W=%d lane %d: got %#x want %#x", e.Width(), i, r[i], want)
			}
		}
	}
}

func TestWindows4MatchesScalar(t *testing.T) {
	input := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	for _, e := range engines() {
		r := e.Windows4(input, 5)
		for i := 0; i < e.Width(); i++ {
			want := uint32(input[5+i]) | uint32(input[6+i])<<8 |
				uint32(input[7+i])<<16 | uint32(input[8+i])<<24
			if r[i] != want {
				t.Fatalf("W=%d lane %d: got %#x want %#x", e.Width(), i, r[i], want)
			}
		}
	}
}

// loadShuffle is the paper's explicit two-step window build (Fig. 2):
// load a raw 4*W-byte register from input[base:], then shuffle it so
// lane i holds the little-endian n-byte window starting at register
// byte i, its high bytes zeroed (the pshufb convention).
func loadShuffle(e *Engine, input []byte, base, n int) U32 {
	var raw [MaxLanes * 4]byte
	copy(raw[:], input[base:])
	var r U32
	for i := 0; i < e.Width(); i++ {
		for j := 0; j < n; j++ {
			r[i] |= uint32(raw[i+j]) << (8 * j)
		}
	}
	return r
}

// The fused Windows2/Windows4 loads must be exactly equivalent to the
// paper's explicit load+shuffle pipeline (Fig. 2).
func TestWindowsEquivalentToLoadShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	input := make([]byte, 256)
	rng.Read(input)
	for _, e := range engines() {
		base := 17
		viaShuffle2 := loadShuffle(e, input, base, 2)
		fused2 := e.Windows2(input, base)
		viaShuffle4 := loadShuffle(e, input, base, 4)
		fused4 := e.Windows4(input, base)
		for i := 0; i < e.Width(); i++ {
			if viaShuffle2[i] != fused2[i] {
				t.Fatalf("W=%d lane %d: shuffle path %#x != fused %#x (2-byte)",
					e.Width(), i, viaShuffle2[i], fused2[i])
			}
			if viaShuffle4[i] != fused4[i] {
				t.Fatalf("W=%d lane %d: shuffle path %#x != fused %#x (4-byte)",
					e.Width(), i, viaShuffle4[i], fused4[i])
			}
		}
	}
}

func TestGatherU8(t *testing.T) {
	table := make([]byte, 256)
	for i := range table {
		table[i] = byte(255 - i)
	}
	for _, e := range engines() {
		idx := lanes(e, 10)
		r := e.GatherU8(table, idx)
		for i := 0; i < e.Width(); i++ {
			if r[i] != uint32(table[10+i]) {
				t.Fatalf("W=%d lane %d: %d", e.Width(), i, r[i])
			}
		}
	}
}

func TestGatherU16(t *testing.T) {
	table := make([]uint16, 512)
	for i := range table {
		table[i] = uint16(i * 3)
	}
	for _, e := range engines() {
		idx := lanes(e, 7)
		r := e.GatherU16(table, idx)
		for i := 0; i < e.Width(); i++ {
			if r[i] != uint32(table[7+i]) {
				t.Fatalf("W=%d lane %d: %d", e.Width(), i, r[i])
			}
		}
	}
}

func TestArithmeticOps(t *testing.T) {
	e := New(8)
	v := lanes(e, 1) // 1..8
	shifted := e.ShiftRightConst(v, 1)
	anded := e.AndConst(v, 1)
	mul := e.MulConst(v, 10)
	for i := 0; i < 8; i++ {
		x := uint32(i + 1)
		if shifted[i] != x>>1 {
			t.Fatalf("shift lane %d: %d", i, shifted[i])
		}
		if anded[i] != x&1 {
			t.Fatalf("and lane %d: %d", i, anded[i])
		}
		if mul[i] != x*10 {
			t.Fatalf("mul lane %d: %d", i, mul[i])
		}
	}
}

func TestAddConst(t *testing.T) {
	e := New(8)
	r := e.AddConst(lanes(e, 0), 8)
	for i := 0; i < 8; i++ {
		if r[i] != uint32(i+8) {
			t.Fatalf("lane %d: %d", i, r[i])
		}
	}
}

func TestTestBit(t *testing.T) {
	e := New(4)
	words := U32{0b0001, 0b0010, 0xFF00, 0}
	pos := U32{0, 1, 9, 3}
	m := e.TestBit(words, pos)
	if m != 0b0111 {
		t.Fatalf("TestBit mask = %04b, want 0111", m)
	}
}

func TestTestBitHighPlane(t *testing.T) {
	// Selecting bit pos+8 reads the merged filter's second plane.
	e := New(4)
	words := U32{1 << 8, 1 << 9, 1, 1 << 15}
	pos := U32{0 + 8, 1 + 8, 2 + 8, 7 + 8}
	m := e.TestBit(words, pos)
	if m != 0b1011 {
		t.Fatalf("high-plane mask = %04b, want 1011", m)
	}
}

func TestCompressStore(t *testing.T) {
	e := New(8)
	dst := e.CompressStore(nil, 100, 0b10000101)
	want := []int32{100, 102, 107}
	if len(dst) != len(want) {
		t.Fatalf("got %v want %v", dst, want)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("got %v want %v", dst, want)
		}
	}
}

func TestCompressStoreAppends(t *testing.T) {
	e := New(4)
	dst := []int32{1, 2}
	dst = e.CompressStore(dst, 10, 0b0001)
	if len(dst) != 3 || dst[2] != 10 {
		t.Fatalf("got %v", dst)
	}
}

// W 4-byte windows span exactly W+3 input bytes: Windows4 reads a
// buffer of that length and no byte past it.
func TestWindowSpan(t *testing.T) {
	for _, e := range engines() {
		span := e.Width() + 3
		input := make([]byte, span)
		e.Windows4(input, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("W=%d: Windows4 on %d bytes did not panic", e.Width(), span-1)
				}
			}()
			e.Windows4(input[:span-1], 0)
		}()
	}
}

// Property: for random inputs and bases, each lane of Windows4 equals the
// scalar 32-bit little-endian load at the lane's position.
func TestWindows4Property(t *testing.T) {
	e := New(8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		input := make([]byte, 64)
		rng.Read(input)
		base := int(rng.Int31n(int32(len(input) - (e.Width() + 3))))
		r := e.Windows4(input, base)
		for i := 0; i < e.Width(); i++ {
			p := input[base+i:]
			want := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
			if r[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: CompressStore emits exactly the set lanes, in order.
func TestCompressStoreProperty(t *testing.T) {
	e := New(16)
	f := func(m uint16, base int32) bool {
		got := e.CompressStore(nil, base, Mask(m))
		var want []int32
		for i := 0; i < 16; i++ {
			if m&(1<<i) != 0 {
				want = append(want, base+int32(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGatherU16W8(b *testing.B) {
	e := New(8)
	table := make([]uint16, 8192)
	idx := lanes(e, 0)
	b.ResetTimer()
	var sink U32
	for i := 0; i < b.N; i++ {
		idx[0] = uint32(i) & 8191
		sink = e.GatherU16(table, idx)
	}
	_ = sink
}

func BenchmarkWindows2W8(b *testing.B) {
	e := New(8)
	input := make([]byte, 4096)
	b.ResetTimer()
	var sink U32
	for i := 0; i < b.N; i++ {
		sink = e.Windows2(input, i&2047)
	}
	_ = sink
}

package accel

import (
	"math/rand"
	"testing"
)

// tableFor builds a table whose viable windows are exactly `wins`.
func tableFor(wins ...uint32) *Table {
	var union [1 << 10]uint64
	for _, w := range wins {
		w &= 0xffff
		union[w>>6] |= 1 << (w & 63)
	}
	return BuildUnion(&union)
}

// allViable builds a table on which every window is viable.
func allViable() *Table {
	var union [1 << 10]uint64
	for k := range union {
		union[k] = ^uint64(0)
	}
	return BuildUnion(&union)
}

func TestBitmapAndByteDerivation(t *testing.T) {
	// Windows "ab" and "cd" (little endian: first byte low).
	tb := tableFor(uint32('a')|uint32('b')<<8, uint32('c')|uint32('d')<<8)
	if !tb.ViableWindow(uint32('a') | uint32('b')<<8) {
		t.Fatal("window ab should be viable")
	}
	if tb.ViableWindow(uint32('a') | uint32('a')<<8) {
		t.Fatal("window aa should not be viable")
	}
	if !tb.ViableByte('a') || !tb.ViableByte('c') || tb.ViableByte('b') {
		t.Fatal("start-byte bitmap wrong")
	}
	if tb.Mode() != ModeIndexByte {
		t.Fatalf("2 start bytes should select ModeIndexByte, got %v", tb.Mode())
	}
	if string(tb.Rare) != "ac" {
		t.Fatalf("rare list = %q, want \"ac\"", tb.Rare)
	}
	if tb.Density != 2.0/65536 || tb.ByteDensity != 2.0/256 {
		t.Fatalf("density %v / %v wrong", tb.Density, tb.ByteDensity)
	}
}

func TestModeSelection(t *testing.T) {
	// 3 start bytes, low window density -> window bitmap.
	tb := tableFor(0x0001, 0x0002, 0x0003, 0x0101, 0x0202)
	if tb.Mode() != ModeWindow {
		t.Fatalf("got %v, want ModeWindow", tb.Mode())
	}
	if tb.Rare != nil {
		t.Fatal("rare list should be nil outside ModeIndexByte")
	}
	// Everything viable -> off.
	all := allViable()
	if all.Mode() != ModeOff || all.Enabled() {
		t.Fatalf("full table should be ModeOff, got %v", all.Mode())
	}
	if all.Density != 1 {
		t.Fatalf("full density = %v", all.Density)
	}
	// Nothing viable -> index-byte with empty rare list (skip all).
	none := tableFor()
	if none.Mode() != ModeIndexByte || len(none.Rare) != 0 {
		t.Fatalf("empty table: mode %v rare %v", none.Mode(), none.Rare)
	}
}

// nextNaive is the reference for Next: the first position whose first
// byte can start a viable window (index-byte mode skips on the first
// byte only, a viable superset).
func nextNaive(tb *Table, input []byte, i, end int) int {
	for ; i < end; i++ {
		if tb.ViableByte(input[i]) {
			return i
		}
	}
	return end
}

func TestNextMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tables := []*Table{
		tableFor(uint32('q') | uint32('q')<<8),                           // 1 rare byte
		tableFor(uint32('a')|uint32('b')<<8, uint32('z')<<8|uint32('x')), // 2 rare
	}
	for ti, tb := range tables {
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(200)
			input := make([]byte, n)
			for i := range input {
				// Small alphabet around the viable bytes so hits occur.
				input[i] = byte('a' + rng.Intn(28))
				if rng.Intn(10) == 0 {
					input[i] = byte(rng.Intn(256))
				}
			}
			end := n - 1
			if end < 0 {
				end = 0
			}
			start := 0
			if end > 0 {
				start = rng.Intn(end + 1)
			}
			got := tb.Next(input, start, end)
			want := nextNaive(tb, input, start, end)
			if got != want {
				t.Fatalf("table %d: Next(%q, %d, %d) = %d, want %d", ti, input, start, end, got, want)
			}
		}
	}
}

func TestNextEmptyAndEdges(t *testing.T) {
	tb := tableFor(uint32('q') | uint32('q')<<8)
	if got := tb.Next([]byte("qq"), 0, 0); got != 0 {
		t.Fatalf("empty range: %d", got)
	}
	if got := tb.Next([]byte("aq"), 0, 1); got != 1 {
		t.Fatalf("no viable start: %d", got)
	}
	if got := tb.Next([]byte("qqa"), 0, 2); got != 0 {
		t.Fatalf("viable at 0: %d", got)
	}
	none := tableFor()
	if got := none.Next([]byte("abcdef"), 0, 5); got != 5 {
		t.Fatalf("none-viable table should skip to end, got %d", got)
	}
}

func TestKeepAccel(t *testing.T) {
	// Window governor: safety valve at 3/4 viable.
	if !KeepAccel(0, SpanBytes) || !KeepAccel(SpanBytes*3/4, SpanBytes) {
		t.Fatal("sparse spans should keep window acceleration")
	}
	if KeepAccel(SpanBytes*3/4+1, SpanBytes) || KeepAccel(SpanBytes, SpanBytes) {
		t.Fatal("extreme-density spans should disable window acceleration")
	}
	// Index-byte governor: disables at 1/3 viable.
	if !KeepAccelIndex(0, SpanBytes) || !KeepAccelIndex(SpanBytes/3, SpanBytes) {
		t.Fatal("sparse spans should keep index-byte acceleration")
	}
	if KeepAccelIndex(SpanBytes/3+1, SpanBytes) || KeepAccelIndex(SpanBytes, SpanBytes) {
		t.Fatal("dense spans should disable index-byte acceleration")
	}
}

func TestInfo(t *testing.T) {
	tb := tableFor(uint32('q') | uint32('q')<<8)
	inf := tb.Info()
	if inf.Mode != "index-byte" || !inf.Enabled || inf.StartBytes != 1 || string(inf.RareBytes) != "q" {
		t.Fatalf("info = %+v", inf)
	}
	all := allViable()
	if inf := all.Info(); inf.Mode != "off" || inf.Enabled {
		t.Fatalf("info = %+v", inf)
	}
}

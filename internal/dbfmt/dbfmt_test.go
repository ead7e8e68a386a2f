package dbfmt

import (
	"bytes"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Kind: KindEngine, Algorithm: 3, Width: 8, Digest: 0xDEADBEEFCAFEF00D}
	secs := []Section{
		{Tag: TagPatterns, Data: []byte("pats")},
		{Tag: TagEngine, Data: []byte{1, 2, 3}},
		{Tag: TagGroup, Data: nil},
	}
	blob := Encode(h, secs)
	gh, gsecs, err := Decode(blob)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if gh != h {
		t.Fatalf("header mismatch: got %+v want %+v", gh, h)
	}
	if len(gsecs) != len(secs) {
		t.Fatalf("got %d sections, want %d", len(gsecs), len(secs))
	}
	for i := range secs {
		if gsecs[i].Tag != secs[i].Tag || !bytes.Equal(gsecs[i].Data, secs[i].Data) {
			t.Errorf("section %d: got %+v want %+v", i, gsecs[i], secs[i])
		}
	}
	if got := FindSection(gsecs, TagEngine); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("FindSection(TagEngine) = %v", got)
	}
	if got := FindSection(gsecs, 99); got != nil {
		t.Errorf("FindSection(99) = %v, want nil", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	blob := Encode(Header{Kind: KindEngine}, []Section{{Tag: TagEngine, Data: make([]byte, 64)}})

	if _, _, err := Decode(nil); err == nil {
		t.Error("empty input: want error")
	}
	if _, _, err := Decode(blob[:len(blob)-1]); err == nil {
		t.Error("truncated input: want error")
	}
	bad := append([]byte("XXXX"), blob[4:]...)
	if _, _, err := Decode(bad); err == nil {
		t.Error("bad magic: want error")
	}
	bad = append([]byte(nil), blob...)
	bad[4] = 0xFF // version
	if _, _, err := Decode(bad); err == nil {
		t.Error("bad version: want error")
	}
	for i := 6; i < len(blob); i += 7 {
		bad = append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, _, err := Decode(bad); err == nil {
			t.Errorf("bit flip at %d: want error", i)
		}
	}
}

func TestEncoderDecoderPrimitives(t *testing.T) {
	var e Encoder
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xDEADBEEF)
	e.Uvarint(300)
	e.Blob([]byte("hello"))
	e.Int32s([]int32{-1, 0, 1 << 30})
	e.Raw([]byte{9, 9})

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Blob(); string(got) != "hello" {
		t.Errorf("Blob = %q", got)
	}
	i32 := d.Int32s()
	if len(i32) != 3 || i32[0] != -1 || i32[2] != 1<<30 {
		t.Errorf("Int32s = %v", i32)
	}
	if a, b := d.U8(), d.U8(); a != 9 || b != 9 {
		t.Errorf("Raw bytes = %d %d", a, b)
	}
	if err := d.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestDecoderBoundsAndStickyError(t *testing.T) {
	d := NewDecoder([]byte{1})
	_ = d.U32() // short read
	if d.Err() == nil {
		t.Fatal("short U32: want error")
	}
	// All further reads stay zero without panicking.
	if d.U32() != 0 || d.Blob() != nil || d.Int32s() != nil {
		t.Error("reads after error should return zero values")
	}

	// A huge claimed count must be rejected before allocation.
	var e Encoder
	e.Uvarint(1 << 40)
	d = NewDecoder(e.Bytes())
	if got := d.Int32s(); got != nil || d.Err() == nil {
		t.Error("oversized count: want error, no allocation")
	}

	// Trailing garbage is an error at Finish.
	d = NewDecoder([]byte{1, 2, 3})
	_ = d.U8()
	if err := d.Finish(); err == nil {
		t.Error("trailing bytes: want Finish error")
	}

	// Bool rejects values other than 0/1.
	d = NewDecoder([]byte{2})
	_ = d.Bool()
	if d.Err() == nil {
		t.Error("Bool(2): want error")
	}
}

package dfc

import (
	"vpatch/internal/dbfmt"
	"vpatch/internal/engine"
	"vpatch/internal/filters"
	"vpatch/internal/hashtab"
	"vpatch/internal/patterns"
	"vpatch/internal/vec"
)

// Compiled-database serialization for DFC and Vector-DFC: the three
// direct filters and the verification tables; Vector-DFC additionally
// records its vector width.

var (
	_ engine.DBCodec = (*Matcher)(nil)
	_ engine.DBCodec = (*VectorMatcher)(nil)
)

// EncodeCompiled appends DFC's compiled state (engine.DBCodec).
func (m *Matcher) EncodeCompiled(e *dbfmt.Encoder) {
	m.fs.Encode(e)
	m.verifier.Encode(e)
}

// Decode restores a DFC engine over set.
func Decode(d *dbfmt.Decoder, set *patterns.Set) (*Matcher, error) {
	fs := filters.DecodeDFC(d)
	verifier := hashtab.DecodeVerifier(d, set)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &Matcher{set: set, fs: fs, verifier: verifier}, nil
}

// EncodeCompiled appends Vector-DFC's compiled state (engine.DBCodec).
func (m *VectorMatcher) EncodeCompiled(e *dbfmt.Encoder) {
	e.U8(uint8(m.eng.Width()))
	m.fs.Encode(e)
	m.verifier.Encode(e)
}

// DecodeVector restores a Vector-DFC engine over set.
func DecodeVector(d *dbfmt.Decoder, set *patterns.Set) (*VectorMatcher, error) {
	w := int(d.U8())
	if d.Err() == nil && w != 4 && w != 8 && w != 16 {
		d.Fail("vector width %d not supported (want 4, 8 or 16)", w)
	}
	fs := filters.DecodeDFC(d)
	verifier := hashtab.DecodeVerifier(d, set)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &VectorMatcher{set: set, fs: fs, verifier: verifier, eng: vec.New(w)}, nil
}

// MemoryFootprint reports resident bytes of DFC's compiled state
// (engine.Sizer).
func (m *Matcher) MemoryFootprint() int {
	return m.fs.SizeBytes() + m.verifier.MemoryFootprint()
}

// MemoryFootprint reports resident bytes of Vector-DFC's compiled state
// (engine.Sizer).
func (m *VectorMatcher) MemoryFootprint() int {
	return m.fs.SizeBytes() + m.verifier.MemoryFootprint()
}

// Package dbfmt defines the on-disk format of compiled pattern
// databases (.vpdb files): a fixed header carrying the format version,
// database kind, algorithm, vector width and a digest of the pattern
// set, followed by length-prefixed sections, terminated by a CRC-32C of
// the whole blob. The pattern set, the rule tier and the IDS rule
// groups flatten into sections with the Encoder and restore with the
// bounds-checked Decoder; the load path validates magic, version, CRC
// and every array length, so a truncated or corrupted database is
// rejected with an error — never a panic, never an unbounded
// allocation.
//
// The format is little-endian throughout and intentionally dumb: raw
// arrays with explicit lengths, no compression, no pointers. A
// structural change to any stored section must bump FormatVersion (see
// the compatibility policy in the repository README).
package dbfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic identifies a compiled pattern database file.
const Magic = "VPDB"

// FormatVersion is the current database format version. Loaders reject
// any newer version: the section layouts are not negotiated field by
// field, the version stands for all of them.
//
// Version history:
//
//	1 — literal-only databases (patterns + engine/group sections).
//	2 — adds the optional TagRules section (rule-semantics tier).
//	    Version-1 files still load: the section layouts they carry are
//	    unchanged, they simply predate rules.
//	3 — only Aho-Corasick writes a TagEngine section; every other
//	    algorithm is compiled from the pattern section at load.
//	    Versions 1-2 still load: their Aho-Corasick section is
//	    unchanged, and the other engines' sections are ignored.
//	4 — no algorithm writes a TagEngine section; every engine is
//	    compiled from the pattern section at load. Versions 1-3 still
//	    load, ignoring any engine section.
const FormatVersion = 4

// minFormatVersion is the oldest version this build still reads.
const minFormatVersion = 1

// Kind distinguishes the two database layouts sharing the container.
type Kind uint8

const (
	// KindEngine is a single compiled engine: one pattern set.
	KindEngine Kind = 1
	// KindIDS is a whole NIDS rule-group database: the full pattern set
	// plus one group section (protocol, ID mapping, nested engine
	// database) per compiled protocol group.
	KindIDS Kind = 2
)

// Section tags.
const (
	// TagPatterns holds the encoded pattern set.
	TagPatterns uint32 = 1
	// TagEngine held an engine's compiled state. Versions 1-2 wrote one
	// for every algorithm and version 3 for Aho-Corasick only; version
	// 4 writes none, and loaders ignore it.
	TagEngine uint32 = 2
	// TagGroup holds one IDS protocol group (repeatable).
	TagGroup uint32 = 3
	// TagRules holds the compiled rule-semantics set (clause conditions
	// and regex tails layered over the pattern set). Optional; absent in
	// literal-only and pre-version-2 databases.
	TagRules uint32 = 4
)

// Header is the fixed-size file header.
type Header struct {
	Kind Kind
	// Algorithm is the numeric algorithm selector (the public package's
	// Algorithm enum). Meaningful for KindEngine and, as the groups'
	// shared algorithm, for KindIDS.
	Algorithm uint8
	// Width is the vector width in lanes for vectorized engines, 0 for
	// scalar ones.
	Width uint8
	// Digest is the pattern-set digest (patterns.Set.Digest); the load
	// path recomputes it from the decoded set and rejects mismatches.
	Digest uint64
}

// Section is one length-prefixed section of a database.
type Section struct {
	Tag  uint32
	Data []byte
}

const headerSize = 4 + 2 + 1 + 1 + 1 + 1 + 8 // magic, version, kind, alg, width, reserved, digest

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode assembles a complete database blob: header, sections, CRC.
func Encode(h Header, secs []Section) []byte {
	size := headerSize + 4
	for _, s := range secs {
		size += 4 + 8 + len(s.Data)
	}
	out := make([]byte, 0, size)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, FormatVersion)
	out = append(out, byte(h.Kind), h.Algorithm, h.Width, 0)
	out = binary.LittleEndian.AppendUint64(out, h.Digest)
	for _, s := range secs {
		out = binary.LittleEndian.AppendUint32(out, s.Tag)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.Data)))
		out = append(out, s.Data...)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// Decode validates a database blob (magic, version, CRC) and splits it
// into header and sections. The returned section data aliases data.
func Decode(data []byte) (Header, []Section, error) {
	var h Header
	if len(data) < headerSize+4 {
		return h, nil, fmt.Errorf("dbfmt: %d bytes is too short for a database", len(data))
	}
	if string(data[:4]) != Magic {
		return h, nil, fmt.Errorf("dbfmt: bad magic %q (not a compiled pattern database)", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v < minFormatVersion || v > FormatVersion {
		return h, nil, fmt.Errorf("dbfmt: format version %d not supported (this build reads versions %d..%d)", v, minFormatVersion, FormatVersion)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return h, nil, fmt.Errorf("dbfmt: checksum mismatch (database corrupted or truncated)")
	}
	h.Kind = Kind(data[6])
	h.Algorithm = data[7]
	h.Width = data[8]
	h.Digest = binary.LittleEndian.Uint64(data[10:])

	var secs []Section
	rest := body[headerSize:]
	for len(rest) > 0 {
		if len(rest) < 12 {
			return h, nil, fmt.Errorf("dbfmt: truncated section header (%d trailing bytes)", len(rest))
		}
		tag := binary.LittleEndian.Uint32(rest)
		n := binary.LittleEndian.Uint64(rest[4:])
		rest = rest[12:]
		if n > uint64(len(rest)) {
			return h, nil, fmt.Errorf("dbfmt: section %d claims %d bytes, %d remain", tag, n, len(rest))
		}
		secs = append(secs, Section{Tag: tag, Data: rest[:n]})
		rest = rest[n:]
	}
	return h, secs, nil
}

// FindSection returns the first section with the given tag, or nil.
func FindSection(secs []Section, tag uint32) []byte {
	for _, s := range secs {
		if s.Tag == tag {
			return s.Data
		}
	}
	return nil
}

// Encoder accumulates one section's payload. The zero value is ready to
// use; writes never fail.
type Encoder struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// Uvarint appends an unsigned varint (lengths, counts).
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends bytes with no length prefix (fixed-size payloads whose
// length the decoder knows from elsewhere).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Int32s appends a length-prefixed []int32.
func (e *Encoder) Int32s(v []int32) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.U32(uint32(x))
	}
}

// Decoder reads one section's payload back. Every read is bounds
// checked; the first failure latches an error and all further reads
// return zero values, so decode code can read a whole structure and
// check Err once. Length-prefixed reads validate the claimed length
// against the remaining input before allocating, which bounds total
// allocation by the input size.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the unread byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("dbfmt: "+format, args...)
	}
}

// Fail records a caller-detected validation error (section decoders
// use it for semantic checks on decoded values).
func (d *Decoder) Fail(format string, args ...any) { d.failf(format, args...) }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.failf("need %d bytes, %d remain", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a strict bool (0 or 1).
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.failf("invalid bool byte %d", v)
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.failf("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Count reads a varint element count and validates that count*elemSize
// bytes can still follow, so array reads cannot be tricked into huge
// allocations by a corrupt length.
func (d *Decoder) Count(elemSize int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > math.MaxInt32 || int64(v)*int64(elemSize) > int64(d.Remaining()) {
		d.failf("count %d x %d bytes exceeds %d remaining", v, elemSize, d.Remaining())
		return 0
	}
	return int(v)
}

// CountAtMost reads a varint element count and validates 0 <= n <=
// max. It is the guard for per-element counts whose elements land in a
// shared flat array validated later: casting an unchecked varint to
// int can wrap negative on 64-bit inputs and slip past `n > remaining`
// style checks, so every such count must come through here (or Count).
func (d *Decoder) CountAtMost(max int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if max < 0 || v > uint64(max) {
		d.failf("count %d exceeds limit %d", v, max)
		return 0
	}
	return int(v)
}

// Blob reads a length-prefixed byte slice. The result aliases the
// decoder's buffer (no copy); callers treat it as read-only.
func (d *Decoder) Blob() []byte {
	n := d.Count(1)
	return d.take(n)
}

// Int32s reads a length-prefixed []int32.
func (d *Decoder) Int32s() []int32 {
	n := d.Count(4)
	b := d.take(n * 4)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// Finish reports an error if undecoded bytes remain or a read failed —
// the standard last call of a section decoder.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("dbfmt: %d undecoded trailing bytes", d.Remaining())
	}
	return nil
}

package core

import (
	"vpatch/internal/dbfmt"
	"vpatch/internal/engine"
	"vpatch/internal/filters"
	"vpatch/internal/hashtab"
	"vpatch/internal/patterns"
	"vpatch/internal/vec"
)

// Compiled-database serialization for S-PATCH and V-PATCH: the shared
// filter stage and verification tables, plus V-PATCH's vector width and
// ablation switches (which change scan behavior, so a database must
// reproduce them exactly). Two retired V-PATCH switch bytes are written
// as 0 and ignored on read, so the format version stands.

var (
	_ engine.DBCodec = (*SPatch)(nil)
	_ engine.DBCodec = (*VPatch)(nil)
)

// maxChunkSize bounds the deserialized filtering-round chunk size; the
// paper's design wants chunks cache-sized, so anything beyond 1 GB is a
// corrupt database, not a configuration.
const maxChunkSize = 1 << 30

func (m *common) encodeCommon(e *dbfmt.Encoder) {
	e.U32(uint32(m.chunk))
	m.fs.Encode(e)
	m.verifier.Encode(e)
}

func decodeCommon(d *dbfmt.Decoder, set *patterns.Set) common {
	chunk := int(d.U32())
	if d.Err() == nil && (chunk < 1 || chunk > maxChunkSize) {
		d.Fail("chunk size %d out of range [1,%d]", chunk, maxChunkSize)
	}
	fs := filters.DecodeSPatch(d)
	verifier := hashtab.DecodeVerifier(d, set)
	c := common{set: set, fs: fs, verifier: verifier, chunk: chunk}
	if fs != nil {
		// The acceleration table is derived state: rebuild it from the
		// decoded filters instead of trusting (or storing) it — loaded
		// engines accelerate exactly like compiled ones, with no
		// database format change.
		c.buildAccel()
	}
	// The extract kernel is host state, never stored: re-dispatch from
	// CPUID on the loading host (this is the Deserialize half of the
	// Compile/Deserialize-time selection).
	c.setKernel(vec.KernelAuto)
	return c
}

// EncodeCompiled appends S-PATCH's compiled state (engine.DBCodec).
func (m *SPatch) EncodeCompiled(e *dbfmt.Encoder) {
	m.encodeCommon(e)
}

// DecodeSPatch restores an S-PATCH engine over set.
func DecodeSPatch(d *dbfmt.Decoder, set *patterns.Set) (*SPatch, error) {
	c := decodeCommon(d, set)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return newSPatch(c), nil
}

// EncodeCompiled appends V-PATCH's compiled state (engine.DBCodec).
func (m *VPatch) EncodeCompiled(e *dbfmt.Encoder) {
	e.U8(uint8(m.eng.Width()))
	e.Bool(m.opt.NoFilterMerge)
	e.Bool(false) // retired
	e.Bool(m.opt.BranchyFilter3)
	e.Bool(false) // retired
	m.encodeCommon(e)
}

// DecodeVPatch restores a V-PATCH engine over set.
func DecodeVPatch(d *dbfmt.Decoder, set *patterns.Set) (*VPatch, error) {
	w := int(d.U8())
	var opt VOptions
	opt.NoFilterMerge = d.Bool()
	d.Bool() // retired
	opt.BranchyFilter3 = d.Bool()
	d.Bool() // retired
	if d.Err() == nil && w != 4 && w != 8 && w != 16 {
		d.Fail("vector width %d not supported (want 4, 8 or 16)", w)
	}
	c := decodeCommon(d, set)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	opt.Width = w
	return newVPatch(c, opt), nil
}

// MemoryFootprint reports resident bytes of the compiled state: the
// filter stage plus the verification tables (engine.Sizer).
func (m *common) MemoryFootprint() int {
	return m.fs.SizeBytes() + m.verifier.MemoryFootprint()
}

// Package hashtab implements the verification stage shared by DFC,
// S-PATCH and V-PATCH: the "specially designed compact hash tables"
// (Choi et al., reused verbatim by the paper). Patterns are bucketed by a
// prefix key — the first 2 bytes for short patterns (1-3 B), the first 4
// bytes for long patterns (≥4 B) — so that a candidate input position
// costs one bucket probe plus exact comparisons against only the patterns
// that share its prefix.
//
// Case-insensitive (Nocase) patterns are stored in separate tables keyed
// by their folded prefix; a probe consults the case-sensitive table with
// the raw input bytes and, only when nocase patterns exist, the folded
// table with folded bytes. This keeps the hot case-sensitive path free of
// folding work.
package hashtab

import (
	"math/bits"

	"vpatch/internal/bitarr"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

// Verifier owns the verification tables for one pattern set.
type Verifier struct {
	set *patterns.Set

	// Short patterns, 1-3 bytes. One-byte patterns are indexed by their
	// single byte; 2-3 byte patterns by their 2-byte prefix.
	shortCS shortTable
	shortCI shortTable

	// Long patterns, >= 4 bytes, keyed by 4-byte prefix.
	longCS longTable
	longCI longTable

	hasNocaseShort bool
	hasNocaseLong  bool
}

// shortTable direct-addresses 1-byte patterns by byte value and 2-3 byte
// patterns by 2-byte prefix via a compact chained hash table.
type shortTable struct {
	len1    [256][]int32
	prefix2 chainTable // key: Index2 of first two bytes
}

// longTable buckets >=4-byte patterns by their 4-byte little-endian prefix.
type longTable struct {
	prefix4 chainTable // key: Load4 of first four bytes
}

// chainTable is a power-of-two bucketed table mapping a uint32 key to the
// pattern IDs whose prefix produced that key. Entries keep the key for a
// cheap reject before the full pattern comparison.
//
// Storage is flat CSR: bucket s is entries[starts[s]:starts[s+1]]. One
// contiguous entry array probes with a single dependent load instead of
// chasing a per-bucket slice header.
type chainTable struct {
	starts  []uint32 // len = bucket count + 1
	entries []entry
	mask    uint32
	shift   uint32 // multiplicative-hash downshift
}

type entry struct {
	key uint32
	id  int32
}

// chainSize returns the bucket count for an expected entry count:
// double the entries, minimum 16, rounded up to a power of two.
func chainSize(expected int) int {
	n := expected * 2
	if n < 16 {
		n = 16
	}
	return 1 << bits.Len(uint(n-1))
}

// buildChainTable lays out the CSR table for entries over size buckets
// (a power of two). Entries keep their relative order within each
// bucket, so probe results are deterministic in insertion order.
func buildChainTable(size int, ents []entry) chainTable {
	t := chainTable{
		mask:  uint32(size - 1),
		shift: uint32(32 - bits.Len(uint(size-1))),
	}
	t.starts = make([]uint32, size+1)
	for i := range ents {
		t.starts[t.slot(ents[i].key)+1]++
	}
	for s := 1; s <= size; s++ {
		t.starts[s] += t.starts[s-1]
	}
	t.entries = make([]entry, len(ents))
	// Fill using starts[s] as bucket s's cursor; each placement advances
	// it, so afterwards starts is shifted one bucket left and one
	// overlapping copy restores it (saves a separate cursor array).
	for i := range ents {
		s := t.slot(ents[i].key)
		t.entries[t.starts[s]] = ents[i]
		t.starts[s]++
	}
	copy(t.starts[1:], t.starts[:size])
	t.starts[0] = 0
	return t
}

func (t *chainTable) slot(key uint32) uint32 {
	return (key * bitarr.MulHashConst) >> t.shift & t.mask
}

// bucket returns the entry list for key; callers filter by entry.key.
func (t *chainTable) bucket(key uint32) []entry {
	s := t.slot(key)
	return t.entries[t.starts[s]:t.starts[s+1]]
}

// Build constructs the verifier for a pattern set.
func Build(set *patterns.Set) *Verifier {
	v := &Verifier{set: set}
	// Collect (key, id) entries per table, then lay each table out flat,
	// sized to its own population (the nocase tables are usually far
	// smaller than their case-sensitive siblings).
	var shortCS, shortCI, longCS, longCI []entry
	pats := set.Patterns()
	for i := range pats {
		p := &pats[i]
		switch {
		case len(p.Data) == 1:
			st := &v.shortCS
			if p.Nocase {
				st = &v.shortCI
				v.hasNocaseShort = true
			}
			st.len1[p.Data[0]] = append(st.len1[p.Data[0]], p.ID)
		case len(p.Data) <= patterns.ShortMax:
			key := bitarr.Index2(p.Data[0], p.Data[1])
			if p.Nocase {
				shortCI = append(shortCI, entry{key: key, id: p.ID})
				v.hasNocaseShort = true
			} else {
				shortCS = append(shortCS, entry{key: key, id: p.ID})
			}
		default:
			key := bitarr.Load4(p.Data)
			if p.Nocase {
				longCI = append(longCI, entry{key: key, id: p.ID})
				v.hasNocaseLong = true
			} else {
				longCS = append(longCS, entry{key: key, id: p.ID})
			}
		}
	}
	v.shortCS.prefix2 = buildChainTable(chainSize(len(shortCS)), shortCS)
	v.shortCI.prefix2 = buildChainTable(chainSize(len(shortCI)), shortCI)
	v.longCS.prefix4 = buildChainTable(chainSize(len(longCS)), longCS)
	v.longCI.prefix4 = buildChainTable(chainSize(len(longCI)), longCI)
	return v
}

// VerifyShortAt checks all short patterns (1-3 B) against input at pos and
// emits every confirmed match. It is called for positions that passed
// filter 1. c may be nil.
func (v *Verifier) VerifyShortAt(input []byte, pos int, c *metrics.Counters, emit patterns.EmitFunc) {
	b0 := input[pos]
	v.verifyShortIn(&v.shortCS, b0, input, pos, c, emit)
	if v.hasNocaseShort {
		v.verifyShortIn(&v.shortCI, patterns.FoldByte(b0), input, pos, c, emit)
	}
}

func (v *Verifier) verifyShortIn(st *shortTable, b0 byte, input []byte, pos int, c *metrics.Counters, emit patterns.EmitFunc) {
	if ids := st.len1[b0]; len(ids) > 0 {
		for _, id := range ids {
			v.tryPattern(id, input, pos, c, emit)
		}
	}
	if pos+1 >= len(input) {
		return
	}
	b1 := input[pos+1]
	if st == &v.shortCI {
		b1 = patterns.FoldByte(b1)
	}
	key := bitarr.Index2(b0, b1)
	if c != nil {
		c.HTProbes++
	}
	for _, e := range st.prefix2.bucket(key) {
		if e.key == key {
			v.tryPattern(e.id, input, pos, c, emit)
		}
	}
}

// VerifyLongAt checks all long patterns (>= 4 B) against input at pos.
// It is called for positions that passed filters 2 and 3; pos must leave
// at least 4 input bytes.
func (v *Verifier) VerifyLongAt(input []byte, pos int, c *metrics.Counters, emit patterns.EmitFunc) {
	if pos+4 > len(input) {
		return
	}
	key := bitarr.Load4(input[pos:])
	if c != nil {
		c.HTProbes++
	}
	for _, e := range v.longCS.prefix4.bucket(key) {
		if e.key == key {
			v.tryPattern(e.id, input, pos, c, emit)
		}
	}
	if v.hasNocaseLong {
		fkey := bitarr.Load4([]byte{
			patterns.FoldByte(input[pos]),
			patterns.FoldByte(input[pos+1]),
			patterns.FoldByte(input[pos+2]),
			patterns.FoldByte(input[pos+3]),
		})
		if c != nil {
			c.HTProbes++
		}
		for _, e := range v.longCI.prefix4.bucket(fkey) {
			if e.key == fkey {
				v.tryPattern(e.id, input, pos, c, emit)
			}
		}
	}
}

func (v *Verifier) tryPattern(id int32, input []byte, pos int, c *metrics.Counters, emit patterns.EmitFunc) {
	p := v.set.Pattern(id)
	if c != nil {
		c.VerifyAttempts++
		c.VerifyBytes += uint64(len(p.Data))
	}
	if p.MatchesAt(input, pos) {
		if c != nil {
			c.Matches++
		}
		if emit != nil {
			emit(patterns.Match{PatternID: id, Pos: int32(pos)})
		}
	}
}

// MemoryFootprint estimates the verifier's resident bytes: bucket
// offsets plus entries. The paper notes these tables exceed L1/L2 but
// typically fit L3; the cost model charges long-table probes at
// L3/memory latency.
func (v *Verifier) MemoryFootprint() int {
	sz := 0
	count := func(t *chainTable) {
		sz += len(t.starts) * 4
		sz += len(t.entries) * 8
	}
	count(&v.shortCS.prefix2)
	count(&v.shortCI.prefix2)
	count(&v.longCS.prefix4)
	count(&v.longCI.prefix4)
	for i := range v.shortCS.len1 {
		sz += len(v.shortCS.len1[i]) * 4
		sz += len(v.shortCI.len1[i]) * 4
	}
	return sz
}

// Package wumanber implements the Wu-Manber multi-pattern matcher, the
// skip-table baseline the paper discusses in related work: a SHIFT table
// over 2-byte blocks lets the scan jump over input that cannot end a
// match. Its documented weakness — the shift distance collapses when the
// set contains short patterns, which NIDS rule sets always do — is exactly
// why the paper's family of filtering algorithms wins on realistic rule
// sets; the comparison is reproduced in the ablation benches.
//
// One-byte patterns cannot participate in a 2-byte block scheme at all;
// they are handled by a dedicated per-byte pass (the matcher therefore
// degrades to no skipping for them, faithfully to the algorithm's
// published limitation).
package wumanber

import (
	"vpatch/internal/bitarr"
	"vpatch/internal/engine"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

// block size in bytes (B in the Wu-Manber paper).
const blockSize = 2

// Matcher is a compiled Wu-Manber searcher. The shift table and buckets
// are immutable after Build and the sliding window position is a local,
// so one Matcher may scan from any number of goroutines concurrently.
type Matcher struct {
	set    *patterns.Set
	folded bool

	// m is the window length: the minimum length over patterns of at
	// least blockSize bytes.
	m int
	// shift[idx] is how far the window may advance when its trailing
	// 2-byte block has index idx.
	shift []uint16
	// hash buckets: pattern IDs whose block at offset m-blockSize equals
	// the window's trailing block (consulted when shift is 0).
	buckets [][]int32

	// len1[b] lists 1-byte patterns matching byte b (checked per byte).
	len1    [256][]int32
	hasLen1 bool
	// hasBlock reports whether any pattern reaches blockSize bytes and
	// the shift machinery is active.
	hasBlock bool
}

// Build compiles the pattern set.
func Build(set *patterns.Set) *Matcher {
	m := &Matcher{set: set}
	for i := range set.Patterns() {
		if set.Patterns()[i].Nocase {
			m.folded = true
			break
		}
	}
	pats := set.Patterns()

	// Partition: 1-byte patterns vs block-capable patterns, and find m.
	m.m = 1 << 30
	for i := range pats {
		p := &pats[i]
		if len(p.Data) < blockSize {
			b := p.Data[0]
			if m.folded {
				b = patterns.FoldByte(b)
			}
			m.len1[b] = append(m.len1[b], p.ID)
			m.hasLen1 = true
			continue
		}
		m.hasBlock = true
		if len(p.Data) < m.m {
			m.m = len(p.Data)
		}
	}
	if !m.hasBlock {
		m.m = 0
		return m
	}

	defaultShift := uint16(m.m - blockSize + 1)
	m.shift = make([]uint16, 1<<16)
	for i := range m.shift {
		m.shift[i] = defaultShift
	}
	m.buckets = make([][]int32, 1<<16)

	for i := range pats {
		p := &pats[i]
		if len(p.Data) < blockSize {
			continue
		}
		data := p.Data
		if m.folded {
			data = patterns.Fold(data)
		}
		// Only the first m bytes of the pattern participate.
		for j := 0; j+blockSize <= m.m; j++ {
			idx := bitarr.Index2(data[j], data[j+1])
			s := uint16(m.m - blockSize - j)
			if s < m.shift[idx] {
				m.shift[idx] = s
			}
			if s == 0 {
				m.buckets[idx] = append(m.buckets[idx], p.ID)
			}
		}
	}
	return m
}

var _ engine.Engine = (*Matcher)(nil)

// NewScratch returns nil: Wu-Manber keeps no mutable scan state
// (engine.Engine).
func (m *Matcher) NewScratch() engine.Scratch { return nil }

// ScanScratch scans input, ignoring scr (engine.Engine).
func (m *Matcher) ScanScratch(_ engine.Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.Scan(input, c, emit)
}

// MemoryFootprint estimates the table bytes (shift + bucket headers).
func (m *Matcher) MemoryFootprint() int {
	sz := len(m.shift) * 2
	sz += len(m.buckets) * 24
	for _, b := range m.buckets {
		sz += len(b) * 4
	}
	return sz
}

// Scan reports every occurrence of every pattern in input.
func (m *Matcher) Scan(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	if c != nil {
		c.BytesScanned += uint64(len(input))
	}
	if m.hasLen1 {
		m.scanLen1(input, c, emit)
	}
	if !m.hasBlock || len(input) < m.m {
		return
	}
	// Window [pos, pos+m); trailing block at pos+m-2.
	pos := 0
	limit := len(input) - m.m
	for pos <= limit {
		b0 := input[pos+m.m-2]
		b1 := input[pos+m.m-1]
		if m.folded {
			b0 = patterns.FoldByte(b0)
			b1 = patterns.FoldByte(b1)
		}
		idx := bitarr.Index2(b0, b1)
		if c != nil {
			c.Filter1Probes++ // shift-table probe
		}
		s := m.shift[idx]
		if s > 0 {
			pos += int(s)
			continue
		}
		if c != nil {
			c.HTProbes++
			c.LongCandidates++
		}
		for _, id := range m.buckets[idx] {
			p := m.set.Pattern(id)
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
		pos++
	}
}

// scanLen1 handles 1-byte patterns with a straight per-byte pass.
func (m *Matcher) scanLen1(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	for i := 0; i < len(input); i++ {
		b := input[i]
		if m.folded {
			b = patterns.FoldByte(b)
		}
		ids := m.len1[b]
		if len(ids) == 0 {
			continue
		}
		for _, id := range ids {
			p := m.set.Pattern(id)
			if p.MatchesAt(input, i) {
				if c != nil {
					c.Matches++
				}
				if emit != nil {
					emit(patterns.Match{PatternID: id, Pos: int32(i)})
				}
			}
		}
	}
}

// Package ffbf implements a feed-forward-Bloom-filter matcher after
// Moraru & Andersen, "Exact Pattern Matching with Feed-Forward Bloom
// Filters" (JEA 2012) — reference [13] of the paper and the other member
// of the cache-resident filtering family it builds on ("operate on the
// same idea: the input is filtered using cache resident data structures,
// and only the interesting parts of the input are forwarded").
//
// Patterns of at least ShingleLen bytes register their leading
// ShingleLen-byte shingle in a cache-sized Bloom filter with k hash
// functions. The scan slides a ShingleLen window over the input and
// probes the Bloom filter; positive positions are forwarded to exact
// verification. The *feed-forward* aspect is retained as pattern-set
// reduction: each pattern remembers its filter bits, and after a scan
// the matcher reports which patterns were even possible given the bits
// the input actually touched (FeedForward.PossiblePatterns) — the
// statistic Moraru & Andersen use to shrink their exact-match phase.
//
// Patterns shorter than the shingle cannot participate in a fixed-width
// shingle filter (the documented FFBF limitation; the paper's §VI also
// notes fixed-width fingerprint schemes "require that the patterns are
// long"). They are handled by an 8 KB 2-byte direct filter and their own
// verifier, exactly like the short-pattern path of the DFC family.
package ffbf

import (
	"vpatch/internal/bitarr"
	"vpatch/internal/engine"
	"vpatch/internal/filters"
	"vpatch/internal/hashtab"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

// ShingleLen is the Bloom-filter shingle size in bytes.
const ShingleLen = 8

// DefaultLog2Bits sizes the Bloom filter at 2^18 bits = 32 KB (one L1
// data cache — the cache-residency constraint FFBF is built around).
const DefaultLog2Bits = 18

// numHashes is k, the number of Bloom hash functions.
const numHashes = 3

// Matcher is a compiled FFBF matcher. The Bloom filter and verification
// tables are immutable after Build; the shingle window and hash state of
// a scan are locals (ScanFeedForward's touched-bit recording allocates
// its own FeedForward per call), so one Matcher may scan from any number
// of goroutines concurrently.
type Matcher struct {
	set *patterns.Set

	// Long patterns (>= ShingleLen): Bloom filter + dedicated verifier.
	bloom       *bitarr.BitArray
	longVerify  *hashtab.Verifier
	longIDs     []int32
	longBits    [][numHashes]uint32
	foldedProbe bool // any nocase long pattern => probe folded windows

	// Short patterns (< ShingleLen): 2-byte direct filter + verifier.
	shortFilter *bitarr.DirectFilter16
	shortVerify *hashtab.Verifier

	hasShort bool
	hasLong  bool
	hasLen1  bool
	log2bits uint
}

// Options configures Build.
type Options struct {
	// Log2Bits sizes the Bloom filter as 2^n bits; 0 selects the 32 KB
	// default.
	Log2Bits uint
}

func isLong(p *patterns.Pattern) bool { return len(p.Data) >= ShingleLen }

// Build compiles the pattern set.
func Build(set *patterns.Set, opt Options) *Matcher {
	log2 := opt.Log2Bits
	if log2 == 0 {
		log2 = DefaultLog2Bits
	}
	m := &Matcher{
		set:         set,
		bloom:       bitarr.New(log2),
		shortFilter: bitarr.NewDirectFilter16(),
		log2bits:    log2,
		longVerify:  hashtab.BuildFiltered(set, isLong),
		shortVerify: hashtab.BuildFiltered(set, func(p *patterns.Pattern) bool { return !isLong(p) }),
	}
	pats := set.Patterns()
	for i := range pats {
		if p := &pats[i]; isLong(p) && p.Nocase {
			m.foldedProbe = true
			break
		}
	}
	for i := range pats {
		p := &pats[i]
		if isLong(p) {
			m.hasLong = true
			m.addLong(p)
			continue
		}
		m.hasShort = true
		if len(p.Data) == 1 {
			m.hasLen1 = true
		}
		filters.AddPrefix2(m.shortFilter, p)
	}
	return m
}

// addLong registers the leading shingle of a long pattern. When the set
// contains nocase long patterns the probe folds input windows, so every
// pattern registers its folded shingle (exactness is restored by the
// verifier); otherwise raw bytes are used throughout.
func (m *Matcher) addLong(p *patterns.Pattern) {
	shingle := p.Data[:ShingleLen]
	if m.foldedProbe && !p.Nocase {
		shingle = patterns.Fold(shingle)
	}
	var h [numHashes]uint32
	shingleHash(shingle, &h, m.bloom.Mask())
	m.longIDs = append(m.longIDs, p.ID)
	m.longBits = append(m.longBits, h)
	for _, bit := range h {
		m.bloom.Set(bit)
	}
}

// shingleHash derives k filter bits from one shingle via FNV-1a plus two
// cheap multiplicative remixes (the probe is the per-byte hot path, so
// hashing must stay a handful of instructions).
func shingleHash(s []byte, out *[numHashes]uint32, mask uint32) {
	const prime = 16777619
	h1 := uint32(2166136261)
	for _, b := range s {
		h1 = (h1 ^ uint32(b)) * prime
	}
	h2 := h1*bitarr.MulHashConst + 0x9E3779B9
	h3 := h2*bitarr.MulHashConst + 0x85EBCA6B
	out[0] = h1 & mask
	out[1] = h2 & mask
	out[2] = h3 & mask
}

// MemoryFootprint reports resident bytes of the compiled state
// (engine.Sizer).
func (m *Matcher) MemoryFootprint() int {
	return m.bloom.SizeBytes() + m.shortFilter.SizeBytes() +
		m.longVerify.MemoryFootprint() + m.shortVerify.MemoryFootprint() +
		len(m.longIDs)*4 + len(m.longBits)*numHashes*4
}

// Scan reports every occurrence of every pattern in input.
func (m *Matcher) Scan(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.scan(input, c, emit, nil)
}

var _ engine.Engine = (*Matcher)(nil)

// NewScratch returns nil: FFBF keeps no mutable scan state
// (engine.Engine).
func (m *Matcher) NewScratch() engine.Scratch { return nil }

// ScanScratch scans input, ignoring scr (engine.Engine).
func (m *Matcher) ScanScratch(_ engine.Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.Scan(input, c, emit)
}

// ScanFeedForward scans and additionally records the Bloom bits the
// input touched, enabling the feed-forward pattern-set reduction.
func (m *Matcher) ScanFeedForward(input []byte, c *metrics.Counters, emit patterns.EmitFunc) *FeedForward {
	ff := &FeedForward{touched: bitarr.New(m.log2bits), m: m}
	m.scan(input, c, emit, ff)
	return ff
}

func (m *Matcher) scan(input []byte, c *metrics.Counters, emit patterns.EmitFunc, ff *FeedForward) {
	if c != nil {
		c.BytesScanned += uint64(len(input))
	}
	n := len(input)
	var window [ShingleLen]byte
	var h [numHashes]uint32
	for i := 0; i < n; i++ {
		if m.hasShort {
			if i+1 < n {
				idx := bitarr.Index2(input[i], input[i+1])
				if c != nil {
					c.Filter1Probes++
				}
				if m.shortFilter.Test(idx) {
					if c != nil {
						c.ShortCandidates++
					}
					m.shortVerify.VerifyShortAt(input, i, c, emit)
					if i+4 <= n {
						// Mid-length patterns (4..7 B) live in the short
						// class here but verify through the 4-byte table.
						m.shortVerify.VerifyLongAt(input, i, c, emit)
					}
				}
			} else if m.hasLen1 {
				m.shortVerify.VerifyShortAt(input, i, c, emit)
			}
		}
		if !m.hasLong || i+ShingleLen > n {
			continue
		}
		probe := input[i : i+ShingleLen]
		if m.foldedProbe {
			for j := 0; j < ShingleLen; j++ {
				window[j] = patterns.FoldByte(input[i+j])
			}
			probe = window[:]
		}
		shingleHash(probe, &h, m.bloom.Mask())
		if c != nil {
			c.Filter2Probes++
		}
		hit := true
		for _, bit := range h {
			if !m.bloom.Test(bit) {
				hit = false
				break
			}
		}
		if !hit {
			continue
		}
		if ff != nil {
			for _, bit := range h {
				ff.touched.Set(bit)
			}
		}
		if c != nil {
			c.LongCandidates++
		}
		m.longVerify.VerifyLongAt(input, i, c, emit)
	}
}

// FeedForward is the pattern-set reduction state of one scan.
type FeedForward struct {
	touched *bitarr.BitArray
	m       *Matcher
}

// PossiblePatterns returns the IDs of long patterns whose every Bloom
// bit was touched by the scanned input — the reduced set FFBF's exact
// phase would run with. Patterns outside this set provably do not occur
// in the input (no false negatives).
func (f *FeedForward) PossiblePatterns() []int32 {
	var out []int32
	for i, bits := range f.m.longBits {
		ok := true
		for _, b := range bits {
			if !f.touched.Test(b) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, f.m.longIDs[i])
		}
	}
	return out
}

// ReductionRatio returns |possible| / |long patterns| for the scan, the
// headline feed-forward statistic (smaller is better).
func (f *FeedForward) ReductionRatio() float64 {
	if len(f.m.longIDs) == 0 {
		return 0
	}
	return float64(len(f.PossiblePatterns())) / float64(len(f.m.longIDs))
}

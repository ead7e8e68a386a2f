// Package patterns defines the pattern sets multiple-pattern matchers are
// built from: the Pattern/Set types, a Snort-style rule parser, seeded
// synthetic generators reproducing the statistics of the paper's rule sets
// (S1 = Snort v2.9.7, ~2.5k patterns; S2 = ET-open 2.9.0, ~20k patterns),
// and a naive reference matcher that defines ground-truth semantics for
// every other matcher in this repository.
package patterns

import (
	"fmt"
	"sort"
)

// Protocol tags a pattern with the traffic class its rule applies to.
// Snort organizes rules in groups and only matches relevant groups against
// a stream; the paper evaluates the HTTP ("web") groups.
type Protocol uint8

const (
	ProtoGeneric Protocol = iota // applies to any traffic
	ProtoHTTP
	ProtoDNS
	ProtoFTP
	ProtoSMTP
)

// ServicePorts is the single port→protocol classification table shared
// by rule parsing (ProtoFromHeader buckets rules by their header ports)
// and flow routing (ids classifies flows by destination port). Keeping
// one table guarantees a rule written for a port always lands in the
// group its flows are scanned against — the two sides cannot drift.
var ServicePorts = map[uint16]Protocol{
	80:   ProtoHTTP,
	443:  ProtoHTTP,
	8000: ProtoHTTP,
	8080: ProtoHTTP,
	53:   ProtoDNS,
	21:   ProtoFTP,
	25:   ProtoSMTP,
	587:  ProtoSMTP,
}

// ProtoForPort classifies a service port via ServicePorts; unlisted
// ports are ProtoGeneric.
func ProtoForPort(port uint16) Protocol {
	if p, ok := ServicePorts[port]; ok {
		return p
	}
	return ProtoGeneric
}

func (p Protocol) String() string {
	switch p {
	case ProtoGeneric:
		return "generic"
	case ProtoHTTP:
		return "http"
	case ProtoDNS:
		return "dns"
	case ProtoFTP:
		return "ftp"
	case ProtoSMTP:
		return "smtp"
	}
	return fmt.Sprintf("protocol(%d)", uint8(p))
}

// Pattern is one exact byte string to search for.
type Pattern struct {
	// ID is the pattern's index within its Set; matchers report it.
	ID int32
	// Data is the literal byte string. For Nocase patterns Data is stored
	// lower-cased and matched case-insensitively.
	Data []byte
	// Nocase requests ASCII case-insensitive matching (Snort's nocase).
	Nocase bool
	// Proto is the traffic class of the originating rule.
	Proto Protocol
}

// Len returns the pattern length in bytes.
func (p *Pattern) Len() int { return len(p.Data) }

// IsShort reports whether the pattern belongs to S-PATCH's short class
// (1-3 bytes, handled by filter 1).
func (p *Pattern) IsShort() bool { return len(p.Data) <= ShortMax }

// ShortMax is the longest pattern length (in bytes) handled by the
// short-pattern path: S-PATCH filter 1 covers patterns of 1-3 bytes and
// filters 2+3 cover patterns of 4 bytes and longer.
const ShortMax = 3

// FoldByte lower-cases one ASCII byte; non-letters pass through.
func FoldByte(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

// Fold lower-cases src into a new slice.
func Fold(src []byte) []byte {
	dst := make([]byte, len(src))
	for i, b := range src {
		dst[i] = FoldByte(b)
	}
	return dst
}

// MatchesAt reports whether pattern p occurs in input starting at pos,
// honouring Nocase. It is the single verification primitive every matcher
// uses, so all matchers share exact semantics.
func (p *Pattern) MatchesAt(input []byte, pos int) bool {
	if pos < 0 || pos+len(p.Data) > len(input) {
		return false
	}
	if !p.Nocase {
		for i, b := range p.Data {
			if input[pos+i] != b {
				return false
			}
		}
		return true
	}
	for i, b := range p.Data {
		if FoldByte(input[pos+i]) != b {
			return false
		}
	}
	return true
}

// Match is one reported occurrence: pattern ID and the start offset of the
// occurrence in the scanned input. Every matcher in this repository must
// produce exactly the same multiset of Matches as the naive reference.
type Match struct {
	PatternID int32
	Pos       int32
}

// EmitFunc receives confirmed matches from a matcher. A nil EmitFunc is
// allowed everywhere and means "count only".
type EmitFunc func(Match)

// Set is an immutable collection of patterns a matcher is compiled from.
type Set struct {
	pats []Pattern
	// dedup guards against inserting the same (data, nocase) twice;
	// duplicates would double-report every occurrence. Built lazily on
	// the first Add, so sets restored from a compiled database (which
	// are never added to) skip the map entirely.
	seen map[string]int32
}

// NewSet returns an empty set.
func NewSet() *Set {
	return &Set{seen: make(map[string]int32)}
}

// dedupKey is the map key identifying a (data, nocase) pair.
func dedupKey(data []byte, nocase bool) string {
	if nocase {
		return "i:" + string(data)
	}
	return "s:" + string(data)
}

// FromStrings builds a case-sensitive set from literal strings,
// convenient for tests and examples.
func FromStrings(ss ...string) *Set {
	set := NewSet()
	for _, s := range ss {
		set.Add([]byte(s), false, ProtoGeneric)
	}
	return set
}

// Add inserts a pattern and returns its ID. Empty patterns are rejected
// with a negative ID. Duplicate (data, nocase) pairs return the existing
// ID. Nocase patterns are stored lower-cased.
func (s *Set) Add(data []byte, nocase bool, proto Protocol) int32 {
	if len(data) == 0 {
		return -1
	}
	d := make([]byte, len(data))
	copy(d, data)
	if nocase {
		for i := range d {
			d[i] = FoldByte(d[i])
		}
	}
	if s.seen == nil {
		s.seen = make(map[string]int32, len(s.pats))
		for i := range s.pats {
			p := &s.pats[i]
			s.seen[dedupKey(p.Data, p.Nocase)] = p.ID
		}
	}
	key := dedupKey(d, nocase)
	if id, ok := s.seen[key]; ok {
		return id
	}
	id := int32(len(s.pats))
	s.pats = append(s.pats, Pattern{ID: id, Data: d, Nocase: nocase, Proto: proto})
	s.seen[key] = id
	return id
}

// Lookup returns the ID of the pattern equal to (data, nocase), if the
// set holds one. For nocase lookups data is folded first, mirroring
// Add. It is how the rule compiler's case-folded compilation reuses one
// engine literal for every case variant of a content: a case-sensitive
// clause whose folded form is already compiled nocase anchors on the
// existing literal and re-verifies the exact bytes at evaluation time,
// instead of growing the filter tables with a near-duplicate.
func (s *Set) Lookup(data []byte, nocase bool) (int32, bool) {
	key := data
	if nocase {
		key = Fold(data)
	}
	if s.seen != nil {
		id, ok := s.seen[dedupKey(key, nocase)]
		return id, ok
	}
	for i := range s.pats {
		p := &s.pats[i]
		if p.Nocase == nocase && string(p.Data) == string(key) {
			return p.ID, true
		}
	}
	return -1, false
}

// Len returns the number of patterns.
func (s *Set) Len() int { return len(s.pats) }

// Pattern returns the pattern with the given ID.
func (s *Set) Pattern(id int32) *Pattern { return &s.pats[id] }

// MaxLen returns the length in bytes of the longest pattern (0 for an
// empty set). Stream carries and parallel shard overlaps are sized from
// it: a match can span at most MaxLen()-1 bytes across a boundary.
func (s *Set) MaxLen() int {
	m := 0
	for i := range s.pats {
		if n := len(s.pats[i].Data); n > m {
			m = n
		}
	}
	return m
}

// Patterns returns the underlying pattern slice (read-only by convention).
func (s *Set) Patterns() []Pattern { return s.pats }

// Filter returns a new set with fresh IDs containing only the patterns for
// which keep returns true. It is how the paper's "web traffic patterns"
// subsets (2K of S1, 9K of S2) are derived from the full sets.
func (s *Set) Filter(keep func(*Pattern) bool) *Set {
	out := NewSet()
	for i := range s.pats {
		p := &s.pats[i]
		if keep(p) {
			out.Add(p.Data, p.Nocase, p.Proto)
		}
	}
	return out
}

// WebSubset returns the HTTP-applicable patterns: HTTP rules plus generic
// rules, mirroring how Snort matches an HTTP stream against HTTP-specific
// and protocol-agnostic groups.
func (s *Set) WebSubset() *Set {
	return s.Filter(func(p *Pattern) bool {
		return p.Proto == ProtoHTTP || p.Proto == ProtoGeneric
	})
}

// Subset returns a deterministic pseudo-random subset of n patterns
// (all patterns if n >= Len). Used for the Fig. 5a pattern-count sweep,
// which randomly selects patterns from the full S2 set.
func (s *Set) Subset(n int, seed int64) *Set {
	if n >= len(s.pats) {
		n = len(s.pats)
	}
	idx := make([]int, len(s.pats))
	for i := range idx {
		idx[i] = i
	}
	// Fisher-Yates with a small local LCG so the package does not drag in
	// math/rand for one shuffle.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	for i := len(idx) - 1; i > 0; i-- {
		j := next(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := NewSet()
	for _, i := range idx[:n] {
		p := &s.pats[i]
		out.Add(p.Data, p.Nocase, p.Proto)
	}
	return out
}

// Stats summarizes the length distribution of a set. The distribution is
// the property the paper's filter design keys on (21% of Snort patterns
// are 1-4 bytes; short patterns hit constantly in real traffic).
type Stats struct {
	Count     int
	MinLen    int
	MaxLen    int
	MeanLen   float64
	MedianLen int
	// ShortFrac is the fraction of patterns with length 1-4 bytes
	// (the statistic the paper quotes for Snort v2.9.7: 21%).
	ShortFrac float64
	ByProto   map[Protocol]int
}

// ComputeStats returns summary statistics for the set.
func (s *Set) ComputeStats() Stats {
	st := Stats{ByProto: make(map[Protocol]int)}
	st.Count = len(s.pats)
	if st.Count == 0 {
		return st
	}
	lens := make([]int, 0, len(s.pats))
	total := 0
	short := 0
	st.MinLen = 1 << 30
	for i := range s.pats {
		n := len(s.pats[i].Data)
		lens = append(lens, n)
		total += n
		if n <= 4 {
			short++
		}
		if n < st.MinLen {
			st.MinLen = n
		}
		if n > st.MaxLen {
			st.MaxLen = n
		}
		st.ByProto[s.pats[i].Proto]++
	}
	sort.Ints(lens)
	st.MeanLen = float64(total) / float64(st.Count)
	st.MedianLen = lens[len(lens)/2]
	st.ShortFrac = float64(short) / float64(st.Count)
	return st
}

// FindAllNaive is the ground-truth matcher: for every input position it
// tries every pattern with MatchesAt. Quadratic and only suitable for
// tests, where it defines the semantics all real matchers must reproduce.
func FindAllNaive(s *Set, input []byte) []Match {
	var out []Match
	for pos := 0; pos < len(input); pos++ {
		for i := range s.pats {
			if s.pats[i].MatchesAt(input, pos) {
				out = append(out, Match{PatternID: s.pats[i].ID, Pos: int32(pos)})
			}
		}
	}
	return out
}

// CountAllNaive returns only the number of ground-truth matches.
func CountAllNaive(s *Set, input []byte) int {
	n := 0
	for pos := 0; pos < len(input); pos++ {
		for i := range s.pats {
			if s.pats[i].MatchesAt(input, pos) {
				n++
			}
		}
	}
	return n
}

// SortMatches orders matches by (Pos, PatternID), the canonical order used
// when comparing matcher outputs.
func SortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Pos != ms[j].Pos {
			return ms[i].Pos < ms[j].Pos
		}
		return ms[i].PatternID < ms[j].PatternID
	})
}

// EqualMatches reports whether a and b contain the same multiset of
// matches. Both are sorted in place.
func EqualMatches(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	SortMatches(a)
	SortMatches(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

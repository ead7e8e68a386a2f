// Package ahocorasick implements the paper's primary baseline: the
// Aho-Corasick automaton as used by Snort (a full-matrix DFA with dense
// 256-way next-state tables, one dependent memory access per input byte).
//
// The full matrix is exactly what makes AC slow on large rule sets — the
// automaton grows far beyond cache (the effect Fig. 4 and Fig. 7 hinge
// on) — so the matrix representation is the default. Sets whose matrix
// would exceed maxMatrixBytes fall back to a sparse (binary-search +
// failure-link) representation, like the trimmed variants the paper
// cites ("decrease the size of the state transition table ... at an
// increased search cost").
//
// Case-insensitive patterns are supported by building the automaton over
// case-folded bytes and scanning folded input; when the set mixes
// case-sensitive patterns in, terminal states verify candidates exactly
// (so output semantics stay identical to every other matcher). Sets with
// no nocase patterns build a raw automaton with zero verification
// overhead.
package ahocorasick

import (
	"bytes"
	"cmp"
	"slices"

	"vpatch/internal/engine"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

// maxMatrixBytes caps the full-matrix size before the sparse fallback
// engages (256 MB ≈ 260k states).
const maxMatrixBytes = 256 << 20

// Matcher is a compiled Aho-Corasick automaton. The automaton is
// immutable after Build and the scan state (the current DFA state) lives
// on the stack, so one Matcher may scan from any number of goroutines
// concurrently.
//
// States are numbered in BFS order, so every state's failure state has
// a smaller number than the state itself.
type Matcher struct {
	set    *patterns.Set
	folded bool // automaton built over folded bytes; verify on output

	// out[outStart[s]:outStart[s+1]] lists the pattern IDs whose
	// (possibly folded) bytes end at state s.
	outStart []int32
	out      []int32

	// Full-matrix representation: next[s*256+c]; nil selects the sparse
	// one.
	next []int32

	// Sparse representation: the children of state s are the states
	// childStart[s] .. childStart[s+1]-1, in ascending label order, and
	// label[t] is the byte that leads to t.
	childStart []int32
	label      []byte
	fail       []int32
}

// Build compiles the pattern set.
func Build(set *patterns.Set) *Matcher { return build(set, maxMatrixBytes) }

// build compiles set into the full matrix when it fits in budget bytes
// and into the sparse representation otherwise (tests pass a small
// budget to force sparse).
func build(set *patterns.Set, budget int) *Matcher {
	pats := set.Patterns()
	m := &Matcher{set: set}
	total := 0
	for i := range pats {
		m.folded = m.folded || pats[i].Nocase
		total += len(pats[i].Data)
	}
	keys := make([][]byte, len(pats))
	var folded []byte
	if m.folded {
		folded = make([]byte, 0, total)
	}
	for i := range pats {
		keys[i] = pats[i].Data
		if m.folded {
			at := len(folded)
			for _, b := range pats[i].Data {
				folded = append(folded, patterns.FoldByte(b))
			}
			keys[i] = folded[at:]
		}
	}

	// 1. The trie, in BFS order. With the patterns sorted by key, the
	// patterns below a state are one run of ord: those ending at the
	// state come first, and the rest split into the children's runs by
	// their next byte, so children are created in label order and
	// numbered consecutively.
	ord := make([]int32, len(pats))
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if c := bytes.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	type run struct{ lo, own, hi, depth int32 } // ord[lo:own] end here
	runs := make([]run, 1, total+1)
	runs[0].hi = int32(len(ord))
	m.label = make([]byte, 1, total+1)
	m.childStart = make([]int32, 1, total+2)
	m.childStart[0] = 1
	for s := 0; s < len(runs); s++ {
		r := runs[s]
		i := r.lo
		for i < r.hi && len(keys[ord[i]]) == int(r.depth) {
			i++
		}
		runs[s].own = i
		for i < r.hi {
			b := keys[ord[i]][r.depth]
			j := i + 1
			for j < r.hi && keys[ord[j]][r.depth] == b {
				j++
			}
			runs = append(runs, run{lo: i, hi: j, depth: r.depth + 1})
			m.label = append(m.label, b)
			i = j
		}
		m.childStart = append(m.childStart, int32(len(runs)))
	}
	states := len(runs)

	// 2. Failure links, the matrix and output counts, in BFS order. A
	// matrix row starts as a copy of the failure state's finished row,
	// and a child's failure state is that row's entry for its label.
	m.fail = make([]int32, states)
	if states*256*4 <= budget {
		m.next = make([]int32, states*256)
	}
	m.outStart = make([]int32, states+1)
	for s := 0; s < states; s++ {
		f := int(m.fail[s])
		lo, hi := m.childStart[s], m.childStart[s+1]
		if m.next != nil {
			row, frow := m.next[s*256:s*256+256], m.next[f*256:f*256+256]
			if s != 0 {
				copy(row, frow)
			}
			for t := lo; t < hi; t++ {
				if s != 0 {
					m.fail[t] = frow[m.label[t]]
				}
				row[m.label[t]] = t
			}
		} else if s != 0 {
			for t := lo; t < hi; t++ {
				m.fail[t] = m.step(int32(f), m.label[t], nil)
			}
		}
		n := runs[s].own - runs[s].lo
		if s != 0 {
			n += m.outStart[f+1] - m.outStart[f]
		}
		m.outStart[s+1] = m.outStart[s] + n
	}

	// 3. Outputs: a state's own patterns, then its failure state's.
	m.out = make([]int32, m.outStart[states])
	for s := 1; s < states; s++ {
		k := m.outStart[s]
		for _, i := range ord[runs[s].lo:runs[s].own] {
			m.out[k] = pats[i].ID
			k++
		}
		f := m.fail[s]
		copy(m.out[k:m.outStart[s+1]], m.out[m.outStart[f]:m.outStart[f+1]])
	}
	if m.next != nil {
		m.childStart, m.label, m.fail = nil, nil, nil
	}
	return m
}

var _ engine.Engine = (*Matcher)(nil)

// NewScratch returns nil: the automaton walk keeps no per-scan state
// beyond locals (engine.Engine).
func (m *Matcher) NewScratch() engine.Scratch { return nil }

// ScanScratch scans input, ignoring scr (engine.Engine).
func (m *Matcher) ScanScratch(_ engine.Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.Scan(input, c, emit)
}

// MemoryFootprint estimates resident bytes of the transition structure —
// the quantity that decides which cache level serves the per-byte access.
func (m *Matcher) MemoryFootprint() int {
	if m.next != nil {
		return len(m.next) * 4
	}
	return len(m.childStart)*4 + len(m.label) + len(m.fail)*4
}

// Scan runs the automaton over input, emitting every match. c may be nil;
// emit may be nil (count only).
func (m *Matcher) Scan(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	if c != nil {
		c.BytesScanned += uint64(len(input))
		c.DFAAccesses += uint64(len(input))
	}
	if m.next != nil {
		m.scanFull(input, c, emit)
	} else {
		m.scanSparse(input, c, emit)
	}
}

func (m *Matcher) scanFull(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	s := int32(0)
	if m.folded {
		for i := 0; i < len(input); i++ {
			s = m.next[int(s)*256+int(patterns.FoldByte(input[i]))]
			if m.outStart[s] != m.outStart[s+1] {
				m.emitOutputs(s, input, i, c, emit)
			}
		}
		return
	}
	for i := 0; i < len(input); i++ {
		s = m.next[int(s)*256+int(input[i])]
		if m.outStart[s] != m.outStart[s+1] {
			m.emitOutputs(s, input, i, c, emit)
		}
	}
}

func (m *Matcher) scanSparse(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	s := int32(0)
	for i := 0; i < len(input); i++ {
		b := input[i]
		if m.folded {
			b = patterns.FoldByte(b)
		}
		s = m.step(s, b, c)
		if m.outStart[s] != m.outStart[s+1] {
			m.emitOutputs(s, input, i, c, emit)
		}
	}
}

// step is the sparse transition function: it follows failure links from
// s until a state has an edge labelled b, counting each extra access on
// c (which may be nil).
func (m *Matcher) step(s int32, b byte, c *metrics.Counters) int32 {
	for {
		lo, hi := m.childStart[s], m.childStart[s+1]
		for lo < hi {
			mid := int32(uint32(lo+hi) >> 1)
			switch l := m.label[mid]; {
			case l == b:
				return mid
			case l < b:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		if s == 0 {
			return 0
		}
		s = m.fail[s]
		if c != nil {
			c.DFAAccesses++ // extra accesses along the failure chain
		}
	}
}

// emitOutputs reports the patterns ending at state s after consuming
// input[i]. In folded mode each candidate is verified exactly first.
func (m *Matcher) emitOutputs(s int32, input []byte, i int, c *metrics.Counters, emit patterns.EmitFunc) {
	for _, id := range m.out[m.outStart[s]:m.outStart[s+1]] {
		p := m.set.Pattern(id)
		pos := i + 1 - len(p.Data)
		if m.folded {
			if c != nil {
				c.VerifyAttempts++
				c.VerifyBytes += uint64(len(p.Data))
			}
			if !p.MatchesAt(input, pos) {
				continue
			}
		}
		if c != nil {
			c.Matches++
		}
		if emit != nil {
			emit(patterns.Match{PatternID: id, Pos: int32(pos)})
		}
	}
}

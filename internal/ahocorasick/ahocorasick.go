// Package ahocorasick implements the paper's primary baseline: the
// Aho-Corasick automaton as used by Snort (a full-matrix DFA with dense
// 256-way next-state tables, one dependent memory access per input byte).
//
// The full matrix is exactly what makes AC slow on large rule sets — the
// automaton grows far beyond cache (the effect Fig. 4 and Fig. 7 hinge
// on) — so the matrix representation is the default. Sets whose matrix
// would exceed a configurable budget fall back to a sparse
// (binary-search + failure-link) representation, like the trimmed
// variants the paper cites ("decrease the size of the state transition
// table ... at an increased search cost").
//
// Case-insensitive patterns are supported by building the automaton over
// case-folded bytes and scanning folded input; when the set mixes
// case-sensitive patterns in, terminal states verify candidates exactly
// (so output semantics stay identical to every other matcher). Sets with
// no nocase patterns build a raw automaton with zero verification
// overhead.
package ahocorasick

import (
	"sort"

	"vpatch/internal/engine"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

// DefaultMaxMatrixBytes caps the full-matrix size before the sparse
// fallback engages (256 MB ≈ 260k states).
const DefaultMaxMatrixBytes = 256 << 20

// Options configures Build.
type Options struct {
	// MaxMatrixBytes overrides DefaultMaxMatrixBytes; 0 means default,
	// negative forces the sparse representation.
	MaxMatrixBytes int
	// Banded selects the banded-row compressed representation (Norton
	// [26]: smaller transition table, extra per-byte search cost). It
	// overrides MaxMatrixBytes.
	Banded bool
}

// Matcher is a compiled Aho-Corasick automaton. The automaton is
// immutable after Build and the scan state (the current DFA state) lives
// on the stack, so one Matcher may scan from any number of goroutines
// concurrently.
type Matcher struct {
	set    *patterns.Set
	folded bool // automaton built over folded bytes; verify on output

	states int
	// outputs[s] lists pattern IDs whose (possibly folded) bytes end at
	// state s.
	outputs [][]int32

	// Full-matrix representation: next[s*256+c].
	full bool
	next []int32

	// Sparse representation: per-state sorted edge arrays + failure links.
	labels  [][]byte
	targets [][]int32
	fail    []int32

	// Banded representation (banded.go).
	banded  bool
	rootRow []int32
	bands   []bandedRow
}

// buildNode is the trie node used during construction only.
type buildNode struct {
	children map[byte]int32
	outputs  []int32
	fail     int32
	depth    int32
}

// Build compiles the pattern set.
func Build(set *patterns.Set, opt Options) *Matcher {
	m := &Matcher{set: set}
	for i := range set.Patterns() {
		if set.Patterns()[i].Nocase {
			m.folded = true
			break
		}
	}

	// 1. Trie over (possibly folded) pattern bytes.
	nodes := []*buildNode{{children: make(map[byte]int32)}}
	for i := range set.Patterns() {
		p := &set.Patterns()[i]
		cur := int32(0)
		for _, b := range p.Data {
			if m.folded {
				b = patterns.FoldByte(b)
			}
			nxt, ok := nodes[cur].children[b]
			if !ok {
				nxt = int32(len(nodes))
				nodes = append(nodes, &buildNode{
					children: make(map[byte]int32),
					depth:    nodes[cur].depth + 1,
				})
				nodes[cur].children[b] = nxt
			}
			cur = nxt
		}
		nodes[cur].outputs = append(nodes[cur].outputs, p.ID)
	}
	m.states = len(nodes)

	// 2. BFS failure links; merge output sets along failure chains.
	queue := make([]int32, 0, len(nodes))
	for _, child := range nodes[0].children {
		nodes[child].fail = 0
		queue = append(queue, child)
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		for b, child := range nodes[s].children {
			queue = append(queue, child)
			f := nodes[s].fail
			for f != 0 {
				if t, ok := nodes[f].children[b]; ok {
					f = t
					goto linked
				}
				f = nodes[f].fail
			}
			if t, ok := nodes[0].children[b]; ok && t != child {
				f = t
			} else {
				f = 0
			}
		linked:
			nodes[child].fail = f
			if len(nodes[f].outputs) > 0 {
				nodes[child].outputs = append(nodes[child].outputs, nodes[f].outputs...)
			}
		}
	}

	m.outputs = make([][]int32, m.states)
	for s, n := range nodes {
		m.outputs[s] = n.outputs
	}

	// 3. Choose representation.
	budget := opt.MaxMatrixBytes
	if budget == 0 {
		budget = DefaultMaxMatrixBytes
	}
	switch {
	case opt.Banded:
		m.buildBanded(nodes, queue)
	case budget > 0 && m.states*256*4 <= budget:
		m.buildFullMatrix(nodes, queue)
	default:
		m.buildSparse(nodes)
	}
	return m
}

// buildFullMatrix converts goto+failure into a dense DFA in BFS order:
// next[s][c] = child if present, else next[fail(s)][c].
func (m *Matcher) buildFullMatrix(nodes []*buildNode, bfs []int32) {
	m.full = true
	m.next = make([]int32, m.states*256)
	for c := 0; c < 256; c++ {
		if t, ok := nodes[0].children[byte(c)]; ok {
			m.next[c] = t
		}
	}
	for _, s := range bfs {
		base := int(s) * 256
		fbase := int(nodes[s].fail) * 256
		for c := 0; c < 256; c++ {
			if t, ok := nodes[s].children[byte(c)]; ok {
				m.next[base+c] = t
			} else {
				m.next[base+c] = m.next[fbase+c]
			}
		}
	}
}

// buildSparse stores sorted edge arrays and failure links.
func (m *Matcher) buildSparse(nodes []*buildNode) {
	m.labels = make([][]byte, m.states)
	m.targets = make([][]int32, m.states)
	m.fail = make([]int32, m.states)
	for s, n := range nodes {
		m.fail[s] = n.fail
		if len(n.children) == 0 {
			continue
		}
		ls := make([]byte, 0, len(n.children))
		for b := range n.children {
			ls = append(ls, b)
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		ts := make([]int32, len(ls))
		for i, b := range ls {
			ts[i] = n.children[b]
		}
		m.labels[s] = ls
		m.targets[s] = ts
	}
}

var _ engine.Engine = (*Matcher)(nil)

// NewScratch returns nil: the automaton walk keeps no per-scan state
// beyond locals (engine.Engine).
func (m *Matcher) NewScratch() engine.Scratch { return nil }

// ScanScratch scans input, ignoring scr (engine.Engine).
func (m *Matcher) ScanScratch(_ engine.Scratch, input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	m.Scan(input, c, emit)
}

// States returns the number of automaton states.
func (m *Matcher) States() int { return m.states }

// MemoryFootprint estimates resident bytes of the transition structure —
// the quantity that decides which cache level serves the per-byte access.
func (m *Matcher) MemoryFootprint() int {
	if m.full {
		return len(m.next) * 4
	}
	if m.banded {
		return m.bandedFootprint()
	}
	sz := len(m.fail) * 4
	for s := range m.labels {
		sz += len(m.labels[s]) + len(m.targets[s])*4 + 48
	}
	return sz
}

// Scan runs the automaton over input, emitting every match. c may be nil;
// emit may be nil (count only).
func (m *Matcher) Scan(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	if c != nil {
		c.BytesScanned += uint64(len(input))
		c.DFAAccesses += uint64(len(input))
	}
	switch {
	case m.full:
		m.scanFull(input, c, emit)
	case m.banded:
		m.scanBanded(input, c, emit)
	default:
		m.scanSparse(input, c, emit)
	}
}

func (m *Matcher) scanFull(input []byte, c *metrics.Counters, emit patterns.EmitFunc) {
	s := int32(0)
	if m.folded {
		for i := 0; i < len(input); i++ {
			s = m.next[int(s)*256+int(patterns.FoldByte(input[i]))]
			if len(m.outputs[s]) > 0 {
				m.emitOutputs(s, input, i, c, emit)
			}
		}
		return
	}
	for i := 0; i < len(input); i++ {
		s = m.next[int(s)*256+int(input[i])]
		if len(m.outputs[s]) > 0 {
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
		for {
			if t, ok := m.edge(s, b); ok {
				s = t
				break
			}
			if s == 0 {
				break
			}
			s = m.fail[s]
			if c != nil {
				c.DFAAccesses++ // extra accesses along the failure chain
			}
		}
		if len(m.outputs[s]) > 0 {
			m.emitOutputs(s, input, i, c, emit)
		}
	}
}

// edge binary-searches the sparse edge array of state s.
func (m *Matcher) edge(s int32, b byte) (int32, bool) {
	ls := m.labels[s]
	lo, hi := 0, len(ls)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ls[mid] == b:
			return m.targets[s][mid], true
		case ls[mid] < b:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}

// emitOutputs reports the patterns ending at state s after consuming
// input[i]. In folded mode each candidate is verified exactly first.
func (m *Matcher) emitOutputs(s int32, input []byte, i int, c *metrics.Counters, emit patterns.EmitFunc) {
	for _, id := range m.outputs[s] {
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

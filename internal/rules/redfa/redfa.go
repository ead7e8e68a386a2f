// Package redfa is the rule tier's bounded regex verifier: a small
// byte-oriented regex compiler (see parse.go for the accepted subset)
// producing an immutable Thompson NFA Prog, executed by a lazily
// determinized DFA (Machine) whose states are built on demand and
// capped.
//
// The verifier is never a standalone scanner. It runs anchored at
// literal-hit windows the rule layer hands it: the multi-pattern
// engines (V-PATCH and friends) prefilter the traffic, the rule
// clauses narrow the hits, and only then does a regex tail execute —
// over at most Window bytes from its anchor. Execution is incremental
// (a verification can be suspended at a buffer boundary and resumed on
// the flow's next reassembled bytes), and strictly bounded: the DFA
// state cache has a hard cap and each verification has a byte budget.
// Exhausting either bails to report — the verification is treated as a
// match, because everything cheaper (literal anchor, clause chain)
// already agreed; a pathological regex can cause a false alert, never
// a miss and never unbounded work.
//
// Byte classes compress DFA transition tables: the 256 input bytes
// collapse into equivalence classes induced by the NFA's arc
// boundaries, so a typical program has a dozen classes and DFA states
// cost tens of bytes, not kilobytes.
package redfa

import (
	"fmt"
	"sort"
)

// unpatched marks a dangling NFA arrow during parsing; no compiled
// program contains it.
const unpatched int32 = -1

// arc is one byte-range transition of a consuming NFA state.
type arc struct {
	lo, hi byte
}

// nstate is one Thompson NFA state. A consuming state (len(arcs) > 0)
// consumes one byte matching any arc and moves to eps[0]; an epsilon
// state forks to every eps entry without consuming. Accept states have
// accept set and no outgoing edges.
type nstate struct {
	arcs   []arc
	eps    []int32
	accept bool
}

// Prog is an immutable compiled regex program: the NFA, its start
// state, and the byte-class table derived from every arc boundary.
// A Prog is safe for concurrent use; per-goroutine execution state
// lives in Machine.
type Prog struct {
	states []nstate
	start  int32

	// classes maps each input byte to its equivalence class;
	// numClasses is the class count. Two bytes in the same class take
	// identical transitions in every state, so DFA rows need only
	// numClasses entries.
	classes    [256]uint8
	numClasses int

	// src is the original expression text (diagnostics only).
	src   string
	flags string
}

// Compile parses expr (with the documented subset) into a program.
// Flags: 'i' folds ASCII case, 's' and 'R' are accepted no-ops.
func Compile(expr, flags string) (*Prog, error) {
	fold := false
	for _, f := range flags {
		switch f {
		case 'i':
			fold = true
		case 's', 'R':
			// dot already matches any byte; every run is anchor-relative
		default:
			return nil, fmt.Errorf("redfa: unsupported flag %q", string(f))
		}
	}
	p := &Prog{src: expr, flags: flags}
	ps := &parser{src: expr, fold: fold, p: p}
	if err := ps.parse(); err != nil {
		return nil, err
	}
	p.buildClasses()
	return p, nil
}

// Source returns the expression text the program was compiled from.
func (p *Prog) Source() string { return p.src }

// Flags returns the flag string the program was compiled with.
func (p *Prog) Flags() string { return p.flags }

// buildClasses computes byte equivalence classes from arc boundaries:
// bytes b and b+1 fall into different classes iff some arc starts at
// b+1 or ends at b.
func (p *Prog) buildClasses() {
	var boundary [257]bool
	boundary[0] = true
	for i := range p.states {
		for _, a := range p.states[i].arcs {
			boundary[a.lo] = true
			boundary[int(a.hi)+1] = true
		}
	}
	cls := uint8(0)
	for b := 0; b < 256; b++ {
		if b > 0 && boundary[b] {
			cls++
		}
		p.classes[b] = cls
	}
	p.numClasses = int(cls) + 1
}

// Dead is the Machine state index meaning the verification can never
// accept (every NFA thread died).
const Dead int32 = -1

// dstate is one lazily built DFA state: the sorted NFA state set it
// stands for and its per-class transition row (unbuiltNext = not yet
// determinized).
type dstate struct {
	nfa    []int32
	next   []int32
	accept bool
}

const unbuiltNext int32 = -2

// Machine executes one Prog as a lazy DFA. It caches determinized
// states up to a hard cap; when a transition would need a new state
// beyond the cap, execution bails (see Feed). A Machine is single-
// goroutine scratch — one per shard/session, shared freely across that
// shard's flows and suspended verifications (state indexes stay valid
// for the Machine's lifetime; the cache never evicts).
type Machine struct {
	prog      *Prog
	maxStates int
	states    []dstate
	cache     map[string]int32

	// StatesBuilt counts DFA states constructed over the Machine's
	// lifetime (the VerifierStates metric is its delta).
	StatesBuilt uint64

	// scratch for closure computation
	set  []int32
	mark []bool
	key  []byte
}

// DefaultMaxStates bounds a Machine's DFA cache. A few hundred states
// cover real rule tails; pathological programs bail to report instead
// of growing further.
const DefaultMaxStates = 512

// NewMachine returns an executor for p with the given state-cache cap
// (0 = DefaultMaxStates).
func NewMachine(p *Prog, maxStates int) *Machine {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	return &Machine{
		prog:      p,
		maxStates: maxStates,
		cache:     make(map[string]int32),
		mark:      make([]bool, len(p.states)),
	}
}

// closure expands seeds through epsilon states into m.set (sorted,
// deduped) and reports whether an accept state is reachable.
func (m *Machine) closure(seeds []int32) (accept bool) {
	m.set = m.set[:0]
	for i := range m.mark {
		m.mark[i] = false
	}
	var stack []int32
	stack = append(stack, seeds...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.mark[s] {
			continue
		}
		m.mark[s] = true
		st := &m.prog.states[s]
		if st.accept {
			accept = true
		}
		if len(st.arcs) > 0 {
			m.set = append(m.set, s) // waits to consume a byte
			continue
		}
		if st.accept {
			continue
		}
		stack = append(stack, st.eps...)
	}
	sort.Slice(m.set, func(i, j int) bool { return m.set[i] < m.set[j] })
	return accept
}

// intern returns the DFA state for the current m.set/accept, creating
// it if new. ok is false when the cap would be exceeded (bail).
func (m *Machine) intern(accept bool) (id int32, ok bool) {
	if len(m.set) == 0 && !accept {
		return Dead, true
	}
	m.key = m.key[:0]
	for _, s := range m.set {
		m.key = append(m.key, byte(s), byte(s>>8))
	}
	if accept {
		m.key = append(m.key, 0xFF, 0xFF)
	}
	if id, hit := m.cache[string(m.key)]; hit {
		return id, true
	}
	if len(m.states) >= m.maxStates {
		return 0, false
	}
	id = int32(len(m.states))
	ds := dstate{
		nfa:    append([]int32(nil), m.set...),
		next:   make([]int32, m.prog.numClasses),
		accept: accept,
	}
	for i := range ds.next {
		ds.next[i] = unbuiltNext
	}
	m.states = append(m.states, ds)
	m.cache[string(m.key)] = id
	m.StatesBuilt++
	return id, true
}

// Start returns the initial DFA state and whether it already accepts
// (an empty-matching program). bailed is true when even the start
// state cannot be interned (cap 0 edge case).
func (m *Machine) Start() (state int32, accept, bailed bool) {
	accept = m.closure([]int32{m.prog.start})
	id, ok := m.intern(accept)
	if !ok {
		return 0, false, true
	}
	return id, accept, false
}

// step determinizes one transition. ok=false means bail.
func (m *Machine) step(state int32, b byte) (next int32, accept, ok bool) {
	ds := &m.states[state]
	cls := m.prog.classes[b]
	if n := ds.next[cls]; n != unbuiltNext {
		if n == Dead {
			return Dead, false, true
		}
		return n, m.states[n].accept, true
	}
	// Build: advance every waiting NFA state whose arcs cover b.
	var seeds []int32
	for _, s := range ds.nfa {
		st := &m.prog.states[s]
		for _, a := range st.arcs {
			if b >= a.lo && b <= a.hi {
				seeds = append(seeds, st.eps[0])
				break
			}
		}
	}
	acc := m.closure(seeds)
	id, interned := m.intern(acc)
	if !interned {
		return 0, false, false
	}
	ds = &m.states[state] // intern may have grown m.states
	ds.next[cls] = id
	if id == Dead {
		return Dead, false, true
	}
	return id, acc, true
}

// Feed advances a verification through data. It stops at the first of:
//   - accept reached (accepted=true; consumed = bytes eaten inclusive),
//   - every NFA thread dead (next=Dead, accepted=false),
//   - data exhausted (next = resumable state, accepted=false),
//   - state-cache cap hit (bailed=true — the caller must treat the
//     verification as a report, the fail-open contract).
//
// The caller enforces the window/byte budget by slicing data.
func (m *Machine) Feed(state int32, data []byte) (next int32, consumed int, accepted, bailed bool) {
	cur := state
	for i, b := range data {
		n, acc, ok := m.step(cur, b)
		if !ok {
			return cur, i, false, true
		}
		if acc {
			return n, i + 1, true, false
		}
		if n == Dead {
			return Dead, i + 1, false, false
		}
		cur = n
	}
	return cur, len(data), false, false
}

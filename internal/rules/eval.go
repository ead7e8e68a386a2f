package rules

import (
	"bytes"
	"math"
	"sort"

	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/rules/redfa"
)

// Evaluation over literal-hit streams. The ids pipeline feeds the
// evaluator two things, both in stream order per flow: every literal
// hit (translated to absolute stream offsets, carry duplicates already
// removed), and every reassembled buffer (so suspended regex
// verifications can consume bytes that arrived after their anchor).
// Per-flow state is a FlowState, created lazily on a flow's first
// relevant hit; per-shard scratch (the lazy-DFA machines, shared by
// all of a shard's flows) is an Eval.
//
// The clause tracker keeps, per rule per flow, the sorted end offsets
// at which each clause chain prefix has been satisfied. Hit ends are
// nondecreasing per flow (buffers are contiguous and each buffer's
// hits are processed sorted by end), which keeps every list append-
// only and lets dead prefixes be pruned on lookup: an end e_prev can
// only satisfy a future clause-k hit ending at e >= current e, so once
// e_prev < e - within it can never match again. Clauses whose
// successor has no `within` keep a single entry (the minimum end —
// with only a lower bound to satisfy, earlier is always at least as
// good).
//
// Completions of the final clause become anchors. A rule with no
// regex tail alerts immediately; with a tail, anchors enter a FIFO
// whose order is the completion order (= ascending anchor offset), and
// the alert fires from the first anchor whose verification accepts
// after all earlier anchors rejected — so the alert offset is exactly
// the one the naive reference (which tries anchors in ascending order)
// would report, even when verifications resolve out of order across
// segment boundaries. Verification is fail-open: a bailed machine
// (state-cache cap) counts as accepted, never as a miss.

// Eval is one shard's rule-evaluation scratch: the per-rule lazy-DFA
// machines. Single-goroutine, shared across the shard's flows.
type Eval struct {
	set      *Set
	machines []*redfa.Machine
}

// NewEval returns evaluation scratch for set.
func NewEval(set *Set) *Eval {
	return &Eval{
		set:      set,
		machines: make([]*redfa.Machine, len(set.Rules)),
	}
}

// Set returns the compiled rule set under evaluation.
func (ev *Eval) Set() *Set { return ev.set }

func (ev *Eval) machine(rule int32) *redfa.Machine {
	m := ev.machines[rule]
	if m == nil {
		m = redfa.NewMachine(ev.set.Rules[rule].Regex, 0) // 0 = redfa.DefaultMaxStates
		ev.machines[rule] = m
	}
	return m
}

// FlowState is one flow's rule progress. The zero value is not usable;
// create with NewFlowState (ids does so lazily, on the flow's first
// hit that has postings).
type FlowState struct {
	// proto is the flow's traffic class: only rules for it (or Generic
	// rules) may fire. The prefilter group can deliver hits for other
	// rules — a literal shared across protocols compiles Generic and
	// lands in every group — so the evaluator must re-filter.
	proto patterns.Protocol
	rules map[int32]*ruleState
	// pendings counts suspended regex verifications across all rules,
	// so the pipeline can skip the per-buffer feed walk when none are
	// waiting (the common case).
	pendings int
}

// NewFlowState returns empty per-flow evaluation state for a flow
// classified to proto.
func NewFlowState(proto patterns.Protocol) *FlowState {
	return &FlowState{proto: proto, rules: make(map[int32]*ruleState)}
}

// Carry returns fresh state for fs's flow under another rule set, fs
// having been evaluated against from: clause progress and suspended
// verifications index from's rules and are dropped (settle them with
// FinishFlow first), while every rule that already alerted on the flow
// stays alerted under the new set, matched by sid through sids (the new
// set's SIDIndex). A rule without a sid (SID 0) has no identity across
// sets and is not carried.
func (fs *FlowState) Carry(from *Set, sids map[int64][]int32) *FlowState {
	next := NewFlowState(fs.proto)
	for id, rs := range fs.rules {
		if sid := from.Rules[id].SID; rs.alerted && sid != 0 {
			for _, nid := range sids[sid] {
				next.rules[nid] = &ruleState{alerted: true}
			}
		}
	}
	return next
}

// HasPending reports whether any regex verification is suspended
// waiting for more stream bytes.
func (fs *FlowState) HasPending() bool { return fs != nil && fs.pendings > 0 }

// anchor statuses.
const (
	aPending uint8 = iota
	aAccepted
	aRejected
)

// anchor is one completion of a rule's final clause awaiting (or done
// with) regex verification.
type anchor struct {
	alertOff int64 // alert stream offset = final clause match start
	anchorE  int64 // verification anchor = final clause match end
	consumed int64 // stream offset of the next byte to feed
	state    int32 // DFA state while status == aPending
	status   uint8
}

// ruleState is one rule's per-flow progress.
type ruleState struct {
	alerted bool
	// ends[k] holds the sorted end offsets at which clauses 0..k are
	// all satisfied (unused for the final clause — completions become
	// alerts or anchors instead).
	ends    [][]int64
	anchors []anchor
}

func (fs *FlowState) rule(id int32, nClauses int) *ruleState {
	rs := fs.rules[id]
	if rs == nil {
		rs = &ruleState{ends: make([][]int64, nClauses)}
		fs.rules[id] = rs
	}
	return rs
}

// EmitFunc receives one rule alert: the rule ID and the alert's
// absolute stream offset.
type EmitFunc func(rule int32, streamOff int64)

// OnHit processes one literal hit at stream offsets [start, end) of
// the flow. buf holds the flow's bytes from stream offset bufBase on —
// the evaluator reads the hit's span for exact-case re-verification
// and feeds bytes after a new anchor into its verifier. c may be nil.
func (ev *Eval) OnHit(fs *FlowState, lit int32, start, end int64, buf []byte, bufBase int64, c *metrics.Counters, emit EmitFunc) {
	for _, p := range ev.set.Postings(lit) {
		r := &ev.set.Rules[p.Rule]
		if r.Proto != patterns.ProtoGeneric && r.Proto != fs.proto {
			continue
		}
		rs := fs.rule(p.Rule, len(r.Clauses))
		if rs.alerted {
			continue
		}
		k := int(p.Clause)
		cl := &r.Clauses[k]
		if cl.Exact {
			// Case-sensitive clause anchored on a shared nocase literal:
			// the prefilter hit is case-insensitive, re-check exact bytes.
			if !bytes.Equal(buf[start-bufBase:end-bufBase], cl.Data) {
				continue
			}
		}
		if k == 0 {
			if start < cl.Offset {
				continue
			}
			if cl.HasDepth && end > cl.Offset+cl.Depth {
				continue
			}
		} else {
			minP := int64(math.MinInt64)
			if cl.HasWithin {
				minP = end - cl.Within
			}
			maxP := start - cl.Distance
			prev := rs.ends[k-1]
			// Prune dead prefix: future hits end at >= end, so entries
			// below minP can never satisfy this clause again.
			cut := 0
			if minP != math.MinInt64 {
				cut = sort.Search(len(prev), func(i int) bool { return prev[i] >= minP })
				if cut > 0 {
					prev = prev[cut:]
					rs.ends[k-1] = prev
				}
			}
			if len(prev) == 0 || prev[0] > maxP {
				continue
			}
		}
		if k == len(r.Clauses)-1 {
			// Chain complete at [start, end).
			if r.Regex == nil {
				rs.alerted = true
				rs.ends, rs.anchors = nil, nil
				if c != nil {
					c.RuleAlerts++
				}
				emit(r.ID, start)
				continue
			}
			ev.startAnchor(fs, rs, r, start, end, buf, bufBase, c)
			ev.resolve(fs, rs, r, c, emit)
			continue
		}
		// Record the satisfied prefix end for the successor clause.
		next := &r.Clauses[k+1]
		ends := rs.ends[k]
		if !next.HasWithin {
			// Only a lower bound ahead: the smallest end dominates.
			if len(ends) == 0 {
				rs.ends[k] = append(ends, end)
			}
			continue
		}
		if n := len(ends); n == 0 || ends[n-1] != end {
			rs.ends[k] = append(ends, end)
		}
	}
}

// startAnchor begins (and advances as far as the buffer allows) one
// regex verification anchored at stream offset end.
func (ev *Eval) startAnchor(fs *FlowState, rs *ruleState, r *Rule, start, end int64, buf []byte, bufBase int64, c *metrics.Counters) {
	m := ev.machine(r.ID)
	before := m.StatesBuilt
	if c != nil {
		c.VerifierRuns++
		defer func() { c.VerifierStates += m.StatesBuilt - before }()
	}
	a := anchor{alertOff: start, anchorE: end, consumed: end}
	st, acc, bailed := m.Start()
	switch {
	case bailed || acc:
		a.status = aAccepted
	default:
		a.state = st
		ev.feedAnchor(&a, m, buf, bufBase)
	}
	if a.status == aPending {
		fs.pendings++
	}
	rs.anchors = append(rs.anchors, a)
}

// feedAnchor advances one pending verification through the bytes buf
// holds past a.consumed, bounded by the window budget.
func (ev *Eval) feedAnchor(a *anchor, m *redfa.Machine, buf []byte, bufBase int64) {
	winEnd := a.anchorE + ev.set.Window
	feedEnd := bufBase + int64(len(buf))
	if winEnd < feedEnd {
		feedEnd = winEnd
	}
	if a.consumed < feedEnd {
		next, n, accepted, bailed := m.Feed(a.state, buf[a.consumed-bufBase:feedEnd-bufBase])
		a.consumed += int64(n)
		switch {
		case bailed || accepted:
			a.status = aAccepted
			return
		case next == redfa.Dead:
			a.status = aRejected
			return
		default:
			a.state = next
		}
	}
	if a.consumed >= winEnd {
		a.status = aRejected // window exhausted without an accept
	}
}

// resolve drains the head of a rule's anchor FIFO: the alert fires
// from the first accepted anchor once every earlier anchor has
// rejected, preserving the naive reference's ascending-anchor order.
func (ev *Eval) resolve(fs *FlowState, rs *ruleState, r *Rule, c *metrics.Counters, emit EmitFunc) {
	for len(rs.anchors) > 0 {
		a := &rs.anchors[0]
		switch a.status {
		case aAccepted:
			for i := range rs.anchors {
				if rs.anchors[i].status == aPending {
					fs.pendings--
				}
			}
			rs.alerted = true
			rs.ends, rs.anchors = nil, nil
			if c != nil {
				c.RuleAlerts++
			}
			emit(r.ID, a.alertOff)
			return
		case aRejected:
			rs.anchors = rs.anchors[1:]
		default:
			return
		}
	}
}

// FinishFlow settles a flow whose stream has ended: every still-
// pending verification is rejected (no accept materialized on the
// bytes that actually arrived — the reference's behavior on the
// truncated window) so that an accepted later anchor blocked behind a
// pending head can still fire. The pipeline calls it at flow close.
func (ev *Eval) FinishFlow(fs *FlowState, c *metrics.Counters, emit EmitFunc) {
	if fs == nil {
		return
	}
	for id, rs := range fs.rules {
		if len(rs.anchors) == 0 {
			continue
		}
		for i := range rs.anchors {
			if rs.anchors[i].status == aPending {
				rs.anchors[i].status = aRejected
				fs.pendings--
			}
		}
		ev.resolve(fs, rs, &ev.set.Rules[id], c, emit)
	}
}

// FeedBuffer advances every suspended verification of the flow with a
// newly arrived buffer (bytes from stream offset bufBase on). The
// pipeline calls it once per reassembled buffer, before that buffer's
// hits, and only when HasPending reports work.
func (ev *Eval) FeedBuffer(fs *FlowState, buf []byte, bufBase int64, c *metrics.Counters, emit EmitFunc) {
	if fs == nil || fs.pendings == 0 {
		return
	}
	for id, rs := range fs.rules {
		if len(rs.anchors) == 0 {
			continue
		}
		r := &ev.set.Rules[id]
		m := ev.machine(id)
		before := m.StatesBuilt
		advanced := false
		for i := range rs.anchors {
			a := &rs.anchors[i]
			if a.status != aPending {
				continue
			}
			ev.feedAnchor(a, m, buf, bufBase)
			if a.status != aPending {
				fs.pendings--
			}
			advanced = true
		}
		if advanced && c != nil {
			c.VerifierStates += m.StatesBuilt - before
		}
		ev.resolve(fs, rs, r, c, emit)
	}
}

package ids

// The rule-semantics tier of the pipeline: engines built with
// NewRuleEngine prefilter traffic with the rule set's case-folded
// literals exactly like literal engines do — same groups, same batched
// ScanBatch path, same carry discipline — and then replay the literal
// hits through the clause/regex evaluator (internal/rules) to decide
// which of them complete a rule. Alerts carry RuleID instead of
// PatternID and fire at most once per rule per flow.
//
// The literal engines remain pure prefilters: every byte of traffic is
// still scanned only by the multi-pattern matchers, and the regex
// verifier runs exclusively at literal-hit anchor windows (the
// VerifierRuns counter makes that observable).

import (
	"cmp"
	"fmt"
	"slices"

	"vpatch"
	"vpatch/internal/rules"
)

// NewRuleEngine compiles a rule-conditioned engine from a parsed rule
// set: rset's literal set becomes the per-protocol prefilter groups,
// and every shard layers the clause/regex evaluator on top. Alerts are
// rule completions (Alert.RuleID). As with NewEngine, a non-nil emit
// attaches a default shard and a nil emit builds none.
func NewRuleEngine(rset *rules.Set, opt vpatch.Options, emit func(Alert)) (*Engine, error) {
	if rset == nil || len(rset.Rules) == 0 {
		return nil, fmt.Errorf("ids: empty rule set")
	}
	return compileEngine(rset.Lits, rset, opt, emit)
}

// Rules returns the engine's rule set, or nil for literal engines.
func (e *Engine) Rules() *rules.Set { return e.rules }

// ruleHit is one literal occurrence queued for rule evaluation during
// a batch flush: the batch buffer it landed in, the original literal
// ID, and its buffer-relative span.
type ruleHit struct {
	buf      int32
	lit      int32
	pos, end int32
}

// ruleEmitter adapts the shard's alert sink to the evaluator's emit
// callback for one flow.
func (s *Shard) ruleEmitter(fs *flowState) rules.EmitFunc {
	return func(rule int32, off int64) {
		s.emit(Alert{
			Flow:         fs.key,
			StreamOffset: off,
			PatternID:    -1,
			RuleID:       rule,
		})
	}
}

// evalRuleHits replays one flushed batch's literal hits through the
// rule evaluator. Hits are ordered per buffer by match end — the
// evaluator's input contract (a flow's buffers already sit in stream
// order in the batch, and carry duplicates were dropped at collection,
// so per-flow hit ends are nondecreasing). Before a buffer's hits, the
// buffer's new bytes advance any regex verification the flow suspended
// at an earlier batch boundary.
func (s *Shard) evalRuleHits(pb *groupBatch, c *vpatch.Counters) {
	hits := s.ruleHits
	// A total order (ties broken by start and literal), so the replay
	// does not depend on the order the matcher reported the hits in.
	slices.SortFunc(hits, func(a, b ruleHit) int {
		switch {
		case a.buf != b.buf:
			return cmp.Compare(a.buf, b.buf)
		case a.end != b.end:
			return cmp.Compare(a.end, b.end)
		case a.pos != b.pos:
			return cmp.Compare(a.pos, b.pos)
		}
		return cmp.Compare(a.lit, b.lit)
	})
	// Budget pricing reads verifier-counter deltas around the evaluator
	// calls, so an uninstrumented shard still needs a counter target
	// when a budget is armed (obsScratch doubles as that scratch — it
	// is unobserved exactly when c would be nil).
	budgeted := s.vbudget.Armed()
	if budgeted && c == nil {
		c = &s.obsScratch
	}
	hi := 0
	for b := range pb.meta {
		ent := &pb.meta[b]
		fs := ent.fs
		if fs.rstate == nil {
			if fs.degraded {
				// Budget-degraded flow: the prefilter still sees every
				// byte; its hits surface as plain literal alerts instead
				// of buying verifier work.
				for hi < len(hits) && int(hits[hi].buf) == b {
					h := hits[hi]
					hi++
					s.emit(Alert{
						Flow:         fs.key,
						StreamOffset: ent.base + int64(h.pos),
						PatternID:    h.lit,
						RuleID:       -1,
					})
				}
				continue
			}
			// Flow already settled (closed) — skip its stale hits.
			for hi < len(hits) && int(hits[hi].buf) == b {
				hi++
			}
			continue
		}
		buf := pb.bufs[b]
		emit := s.ruleEmitter(fs)
		var runs0, states0 uint64
		if budgeted {
			runs0, states0 = c.VerifierRuns, c.VerifierStates
		}
		nhits := uint64(0)
		if fs.rstate.HasPending() {
			s.ev.FeedBuffer(fs.rstate, buf, ent.base, c, emit)
		}
		for hi < len(hits) && int(hits[hi].buf) == b {
			h := hits[hi]
			hi++
			nhits++
			s.ev.OnHit(fs.rstate, h.lit,
				ent.base+int64(h.pos), ent.base+int64(h.end), buf, ent.base, c, emit)
		}
		if budgeted && nhits > 0 {
			cost := s.vbudget.Price.Cost(
				c.VerifierRuns-runs0, c.VerifierStates-states0, nhits)
			s.chargeVerifier(fs, cost, c, emit)
		}
	}
	s.ruleHits = hits[:0]
}

// chargeVerifier debits one buffer's verifier work from the flow and
// tenant budgets. An uncovered charge demotes the flow: suspended
// verifications are settled (already-anchored rules still fire or
// reject — no alert is silently lost), the rule state is torn down,
// and the flow continues in literal-only mode for its remaining
// lifetime. Exhaustion trails the work by at most one buffer, whose
// excess is bounded by its hit count times the anchored window.
func (s *Shard) chargeVerifier(fs *flowState, cost int64, c *vpatch.Counters, emit rules.EmitFunc) {
	ok := true
	if s.vbudget.PerFlow > 0 {
		fs.vbudget -= cost
		if fs.vbudget < 0 {
			ok = false
		}
	}
	if ok && !s.vbudget.Pool.TryTake(cost) {
		ok = false
	}
	if ok {
		return
	}
	c.VerifierBudgetExhausted++
	c.DegradedFlows++
	s.ev.FinishFlow(fs.rstate, c, emit)
	fs.rstate = nil
	fs.degraded = true
}

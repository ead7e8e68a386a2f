package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"vpatch/ids"
	"vpatch/internal/netsim"
	"vpatch/internal/resil"
)

// maxPasses bounds the passes of one phase (the canary table is a
// fixed array of per-pass pages so the alert path never locks).
const maxPasses = 1 << 14

// canarySlot is one flow's canary timeline, in nanoseconds since the
// harness epoch: when its unit was due, when it was written, when its
// alert reached OnAlert.
type canarySlot struct {
	due, sent, got atomic.Int64
}

// tally receives one phase's alerts. Canary alerts are timed; all
// others fold into a count and an order-independent 64-bit hash over
// (flow index, rule/pattern ID, stream offset), striped so the two
// shard goroutines rarely share a cache line.
type tally struct {
	base, flows           uint32
	canaryRule, canaryPat int32
	epoch                 time.Time

	pages    [maxPasses]atomic.Pointer[[]canarySlot]
	canaries atomic.Uint64
	cells    [8]struct {
		n, h atomic.Uint64
		_    [48]byte
	}
}

// alertIDs names the canary in a compiled DB: its rule index in rule
// mode, its pattern index in literal mode; the other is -2 (never an
// alert's value).
type alertIDs struct{ canaryRule, canaryPat int32 }

func findCanary(eng *ids.Engine) (alertIDs, error) {
	if rset := eng.Rules(); rset != nil {
		for i := range rset.Rules {
			if rset.Rules[i].SID == canarySID {
				return alertIDs{canaryRule: int32(i), canaryPat: -2}, nil
			}
		}
		return alertIDs{}, fmt.Errorf("canary rule sid %d not in the rule set", canarySID)
	}
	id, ok := eng.Set().Lookup([]byte(canaryText), false)
	if !ok {
		return alertIDs{}, fmt.Errorf("canary pattern not in the pattern set")
	}
	return alertIDs{canaryRule: -2, canaryPat: id}, nil
}

func newTally(base uint32, flows int, cid alertIDs, epoch time.Time) *tally {
	return &tally{base: base, flows: uint32(flows), canaryRule: cid.canaryRule, canaryPat: cid.canaryPat, epoch: epoch}
}

// openPass allocates pass p's canary page; the sender calls it before
// the pass's first frame leaves.
func (t *tally) openPass(p int) []canarySlot {
	page := make([]canarySlot, t.flows)
	t.pages[p].Store(&page)
	return page
}

func (t *tally) onAlert(a ids.Alert) {
	rel := a.Flow.DstIP - t.base
	if a.RuleID == t.canaryRule || (a.RuleID < 0 && a.PatternID == t.canaryPat) {
		// Early out before anything shared: the canary's latency must
		// not include the tally's own contention.
		if p := rel / t.flows; p < maxPasses {
			if page := t.pages[p].Load(); page != nil {
				(*page)[rel%t.flows].got.CompareAndSwap(0, int64(time.Since(t.epoch)))
			}
		}
		t.canaries.Add(1)
		return
	}
	c := &t.cells[a.Flow.SrcPort&7]
	c.n.Add(1)
	c.h.Add(alertHash(rel%t.flows, a))
}

// alertHash mixes one alert's identity; sums of it are independent of
// arrival order.
func alertHash(flow uint32, a ids.Alert) uint64 {
	x := uint64(flow)<<32 | uint64(uint32(a.PatternID))
	x ^= uint64(uint32(a.RuleID)) * 0x9E3779B97F4A7C15
	x ^= uint64(a.StreamOffset) * 0xC2B2AE3D27D4EB4F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// multiset is an alert multiset's fingerprint.
type multiset struct{ canaries, n, h uint64 }

func (t *tally) sum() multiset {
	m := multiset{canaries: t.canaries.Load()}
	for i := range t.cells {
		m.n += t.cells[i].n.Load()
		m.h += t.cells[i].h.Load()
	}
	return m
}

func (m multiset) times(sets uint64) multiset {
	return multiset{m.canaries * sets, m.n * sets, m.h * sets}
}

func pipelineLimits() netsim.Limits {
	return netsim.Limits{
		MaxFlows: maxFlows, IdleTimeoutMicros: uint64(flowTimeout.Microseconds()),
		FlowPendingBytes: flowPending, TotalPendingBytes: totalPending,
	}
}

func verifierBudget() resil.VerifierBudget {
	return resil.VerifierBudget{PerFlow: verifierFlow, Price: resil.DefaultPrice()}
}

// reference computes the expected alert multiset of one corpus set by
// feeding it through a single-shard engine loaded from the same DB,
// with the daemon's limits and verifier budget.
func reference(db []byte, c *corpus) (multiset, error) {
	var t *tally
	eng, err := ids.LoadDB(db, func(a ids.Alert) { t.onAlert(a) })
	if err != nil {
		return multiset{}, err
	}
	cid, err := findCanary(eng)
	if err != nil {
		return multiset{}, err
	}
	t = newTally(0, c.flows, cid, time.Now())
	t.openPass(0)
	eng.SetLimits(pipelineLimits())
	eng.SetVerifierBudget(verifierBudget())
	for _, seg := range c.oneSet(0) {
		eng.HandleSegment(seg)
	}
	eng.Flush()
	ref := t.sum()
	if ref.canaries != uint64(c.flows) {
		return ref, fmt.Errorf("reference saw %d canary alerts for %d flows", ref.canaries, c.flows)
	}
	return ref, nil
}

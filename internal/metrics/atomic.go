package metrics

// Concurrent counter publishing. The hot-path Counters type is
// deliberately plain — matchers increment its fields with ordinary
// read-modify-write in their innermost loops, so it must stay owned by
// one goroutine. A resident daemon, however, needs to scrape counters
// while scans are running: Atomic is the publication half of that
// split. Each scanning goroutine keeps accumulating into its private
// Counters and periodically folds the delta into a shared Atomic with
// AddCounters; scrapers call Snapshot at any time from any goroutine.
// Every transfer is field-by-field atomic, so a snapshot never tears a
// counter (it may lag the owner's private tally by at most one
// unpublished delta, which is the price of keeping the scan loop free
// of atomics).

import "sync/atomic"

// Atomic is a concurrency-safe accumulation point for Counters.
// Writers fold deltas in with AddCounters; readers take consistent
// word-wise snapshots with Snapshot. The zero value is ready to use.
type Atomic struct {
	bytesScanned atomic.Uint64

	filter1Probes atomic.Uint64
	filter2Probes atomic.Uint64
	filter3Probes atomic.Uint64

	vectorIters   atomic.Uint64
	gathers       atomic.Uint64
	mergedGathers atomic.Uint64

	filter3Blocks      atomic.Uint64
	filter3UsefulLanes atomic.Uint64

	skippedBytes atomic.Uint64
	accelChances atomic.Uint64
	accelRuns    atomic.Uint64

	shortCandidates atomic.Uint64
	longCandidates  atomic.Uint64

	htProbes       atomic.Uint64
	verifyAttempts atomic.Uint64
	verifyBytes    atomic.Uint64

	dfaAccesses atomic.Uint64

	matches atomic.Uint64

	verifierRuns   atomic.Uint64
	verifierStates atomic.Uint64
	ruleAlerts     atomic.Uint64

	verifierBudgetExhausted atomic.Uint64
	degradedFlows           atomic.Uint64
	panicsRecovered         atomic.Uint64
	flowsQuarantined        atomic.Uint64

	flowsEvicted atomic.Uint64
	bytesDropped atomic.Uint64
	peakFlows    atomic.Uint64

	deadlineFlushes atomic.Uint64

	filteringNs atomic.Int64
	verifyNs    atomic.Int64
	otherNs     atomic.Int64
}

// AddCounters folds c into a. Safe for concurrent use with other
// AddCounters and Snapshot calls; c itself must not be mutated
// concurrently (it is the caller's private scratch). PeakFlows merges
// by maximum, like Counters.Add.
func (a *Atomic) AddCounters(c *Counters) {
	a.bytesScanned.Add(c.BytesScanned)
	a.filter1Probes.Add(c.Filter1Probes)
	a.filter2Probes.Add(c.Filter2Probes)
	a.filter3Probes.Add(c.Filter3Probes)
	a.vectorIters.Add(c.VectorIters)
	a.gathers.Add(c.Gathers)
	a.mergedGathers.Add(c.MergedGathers)
	a.filter3Blocks.Add(c.Filter3Blocks)
	a.filter3UsefulLanes.Add(c.Filter3UsefulLanes)
	a.skippedBytes.Add(c.SkippedBytes)
	a.accelChances.Add(c.AccelChances)
	a.accelRuns.Add(c.AccelRuns)
	a.shortCandidates.Add(c.ShortCandidates)
	a.longCandidates.Add(c.LongCandidates)
	a.htProbes.Add(c.HTProbes)
	a.verifyAttempts.Add(c.VerifyAttempts)
	a.verifyBytes.Add(c.VerifyBytes)
	a.dfaAccesses.Add(c.DFAAccesses)
	a.matches.Add(c.Matches)
	a.verifierRuns.Add(c.VerifierRuns)
	a.verifierStates.Add(c.VerifierStates)
	a.ruleAlerts.Add(c.RuleAlerts)
	a.verifierBudgetExhausted.Add(c.VerifierBudgetExhausted)
	a.degradedFlows.Add(c.DegradedFlows)
	a.panicsRecovered.Add(c.PanicsRecovered)
	a.flowsQuarantined.Add(c.FlowsQuarantined)
	a.flowsEvicted.Add(c.FlowsEvicted)
	a.bytesDropped.Add(c.BytesDropped)
	storeMax(&a.peakFlows, c.PeakFlows)
	a.deadlineFlushes.Add(c.DeadlineFlushes)
	a.filteringNs.Add(c.FilteringNs)
	a.verifyNs.Add(c.VerifyNs)
	a.otherNs.Add(c.OtherNs)
}

// storeMax raises a to at least v (lock-free monotonic max).
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot returns the accumulated counters as a plain Counters value.
// Each field is loaded atomically, so no counter is ever torn; the
// fields are not loaded as one transaction, but every field is
// monotonic (PeakFlows is a monotonic max), so consecutive snapshots
// never go backwards — the property scrape consumers need.
func (a *Atomic) Snapshot() Counters {
	return Counters{
		BytesScanned:       a.bytesScanned.Load(),
		Filter1Probes:      a.filter1Probes.Load(),
		Filter2Probes:      a.filter2Probes.Load(),
		Filter3Probes:      a.filter3Probes.Load(),
		VectorIters:        a.vectorIters.Load(),
		Gathers:            a.gathers.Load(),
		MergedGathers:      a.mergedGathers.Load(),
		Filter3Blocks:      a.filter3Blocks.Load(),
		Filter3UsefulLanes: a.filter3UsefulLanes.Load(),
		SkippedBytes:       a.skippedBytes.Load(),
		AccelChances:       a.accelChances.Load(),
		AccelRuns:          a.accelRuns.Load(),
		ShortCandidates:    a.shortCandidates.Load(),
		LongCandidates:     a.longCandidates.Load(),
		HTProbes:           a.htProbes.Load(),
		VerifyAttempts:     a.verifyAttempts.Load(),
		VerifyBytes:        a.verifyBytes.Load(),
		DFAAccesses:        a.dfaAccesses.Load(),
		Matches:            a.matches.Load(),
		VerifierRuns:       a.verifierRuns.Load(),
		VerifierStates:     a.verifierStates.Load(),
		RuleAlerts:         a.ruleAlerts.Load(),

		VerifierBudgetExhausted: a.verifierBudgetExhausted.Load(),
		DegradedFlows:           a.degradedFlows.Load(),
		PanicsRecovered:         a.panicsRecovered.Load(),
		FlowsQuarantined:        a.flowsQuarantined.Load(),

		FlowsEvicted: a.flowsEvicted.Load(),
		BytesDropped: a.bytesDropped.Load(),
		PeakFlows:    a.peakFlows.Load(),

		DeadlineFlushes: a.deadlineFlushes.Load(),

		FilteringNs: a.filteringNs.Load(),
		VerifyNs:    a.verifyNs.Load(),
		OtherNs:     a.otherNs.Load(),
	}
}

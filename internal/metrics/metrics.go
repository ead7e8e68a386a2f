// Package metrics instruments the pattern matchers. Every matcher counts
// the events that determine its performance on real hardware — filter
// probes, gathers, hash-table probes, verification byte compares, vector
// iterations and lane occupancy, and time spent per phase. The counters
// feed three consumers: the experiment drivers (Fig. 5b's
// filtering-time/total-time and useful-lane series are direct counter
// ratios), the cost model (which converts event counts into modeled
// Haswell/Xeon-Phi cycles), and tests (which assert structural properties
// such as "V-PATCH performs one merged gather per W windows").
package metrics

import (
	"fmt"
	"time"
)

// Counters accumulates matcher events for one scan (or several; counters
// are additive). The zero value is ready to use. Not safe for concurrent
// mutation; give each goroutine its own Counters.
//
// The fields are plain words mutated with ordinary read-modify-write on
// the scan hot path, so reading them from another goroutine while a
// scan is running is a data race (and may observe torn, partial
// updates). Long-running services that must expose counters while
// scanning publish deltas into an Atomic instead (the scanning
// goroutine calls Atomic.AddCounters at flush points; scrapers call
// Atomic.Snapshot from any goroutine) — see atomic.go.
type Counters struct {
	// LaneExact asks S-PATCH/V-PATCH for lane-exact accounting: the scan
	// runs on the explicit (emulated) vector engine and fills the
	// emulation-only counters below — filter probes, gathers, vector
	// iterations, lane occupancy — at several times the cost of a
	// production scan. Set only by the figure drivers, the cost-model
	// inputs and the lane-occupancy tests. Without it, attaching counters
	// never changes which kernels run: scans take the fused production
	// path and fill what is free there (BytesScanned, the candidate and
	// verification counts, Matches, the skip tallies and the two phase
	// clocks), leaving the emulation-only counters zero. A request, not
	// an event count: Add ignores it and Reset clears it.
	LaneExact bool `json:"-"`

	// BytesScanned is the input volume processed.
	BytesScanned uint64

	// Scalar filter probes (one memory access each). Emulation-only
	// (LaneExact), like the vector execution counters below.
	Filter1Probes uint64
	Filter2Probes uint64
	Filter3Probes uint64

	// Vector execution. VectorIters counts main-loop iterations (each
	// covering W positions); Gathers counts gather instructions issued;
	// MergedGathers counts how many of them were merged filter-1+2
	// fetches (the Fig. 3 optimization).
	VectorIters   uint64
	Gathers       uint64
	MergedGathers uint64

	// Speculative filter-3 execution (Fig. 5b's red line): number of
	// times the filter-3 block ran, and the sum of lanes that actually
	// needed it (the "useful elements").
	Filter3Blocks      uint64
	Filter3UsefulLanes uint64

	// Skip-loop acceleration (the fused kernels' layer in front of the
	// filter probes). SkippedBytes counts input positions the
	// accelerator proved unable to start a candidate and skipped
	// without probing. AccelChances counts governor spans scanned (at
	// most accel.SpanBytes of accelerated scanning each), AccelRuns the
	// spans whose viable fraction kept the skip loop engaged. Lane-exact
	// scans run the plain Algorithms 1 and 2 and leave all three zero.
	// Together with BytesScanned they give the Fig.-5c-style density
	// story: SkipFrac falls as the matching fraction of the input grows.
	SkippedBytes uint64
	AccelChances uint64
	AccelRuns    uint64

	// Candidate positions stored into the temporary arrays.
	ShortCandidates uint64
	LongCandidates  uint64

	// Verification work: hash-table bucket probes, candidate patterns
	// compared, and total pattern bytes compared.
	HTProbes       uint64
	VerifyAttempts uint64
	VerifyBytes    uint64

	// DFAAccesses counts state-machine transition fetches (Aho-Corasick
	// performs one dependent access per input byte; the cost model
	// charges them at a latency depending on automaton size).
	DFAAccesses uint64

	// Matches found.
	Matches uint64

	// Rule-tier verification (the layer above the literal matchers).
	// VerifierRuns counts regex verifications started at literal-hit
	// anchors, VerifierStates counts lazy-DFA states constructed across
	// them (cache misses — a hot verifier converges to zero new states),
	// and RuleAlerts counts rule-level alerts emitted after all clauses
	// and the regex tail agreed. VerifierRuns/RuleAlerts vs Matches is
	// the prefilter-vs-verify cost story in one ratio.
	VerifierRuns   uint64
	VerifierStates uint64
	RuleAlerts     uint64

	// Resilience events (the overload/degradation layer).
	// VerifierBudgetExhausted counts charge attempts denied because a
	// flow or tenant verifier budget ran dry; DegradedFlows counts flows
	// demoted to literal-only alerting as a result (at most one per
	// flow). PanicsRecovered counts per-segment panics a dispatcher
	// worker caught without losing the shard; FlowsQuarantined counts
	// flows torn down and blacklisted after such a panic (their later
	// segments are dropped, the shard keeps scanning everyone else).
	VerifierBudgetExhausted uint64
	DegradedFlows           uint64
	PanicsRecovered         uint64
	FlowsQuarantined        uint64

	// Flow-lifecycle events from the reassembly/IDS pipeline (zero for
	// plain buffer scans). FlowsEvicted counts open flows dropped by
	// the flow cap or idle timeout, BytesDropped counts payload bytes
	// the pipeline discarded (over-budget out-of-order data, evicted
	// flows, post-teardown retransmits), and PeakFlows is the maximum
	// number of simultaneously tracked flows (Add merges it by max, not
	// sum — it is a high-water mark, not an event count).
	FlowsEvicted uint64
	BytesDropped uint64
	PeakFlows    uint64

	// DeadlineFlushes counts group batches a dispatcher shard scanned
	// because their oldest job had waited the alert-delay bound, rather
	// than at a watermark, a flow teardown or an explicit flush: near
	// zero at full rate, about one per alert-bearing payload on a quiet
	// link.
	DeadlineFlushes uint64

	// Phase wall-clock time: the filtering and verification rounds of
	// the matcher, and — for pipelines that layer work on top of the
	// matcher — everything else inside a scan (OtherNs: the ids shard's
	// rule evaluation over a flushed batch's hits).
	FilteringNs int64
	VerifyNs    int64
	OtherNs     int64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.BytesScanned += o.BytesScanned
	c.Filter1Probes += o.Filter1Probes
	c.Filter2Probes += o.Filter2Probes
	c.Filter3Probes += o.Filter3Probes
	c.VectorIters += o.VectorIters
	c.Gathers += o.Gathers
	c.MergedGathers += o.MergedGathers
	c.Filter3Blocks += o.Filter3Blocks
	c.Filter3UsefulLanes += o.Filter3UsefulLanes
	c.SkippedBytes += o.SkippedBytes
	c.AccelChances += o.AccelChances
	c.AccelRuns += o.AccelRuns
	c.ShortCandidates += o.ShortCandidates
	c.LongCandidates += o.LongCandidates
	c.HTProbes += o.HTProbes
	c.VerifyAttempts += o.VerifyAttempts
	c.VerifyBytes += o.VerifyBytes
	c.DFAAccesses += o.DFAAccesses
	c.Matches += o.Matches
	c.VerifierRuns += o.VerifierRuns
	c.VerifierStates += o.VerifierStates
	c.RuleAlerts += o.RuleAlerts
	c.VerifierBudgetExhausted += o.VerifierBudgetExhausted
	c.DegradedFlows += o.DegradedFlows
	c.PanicsRecovered += o.PanicsRecovered
	c.FlowsQuarantined += o.FlowsQuarantined
	c.FlowsEvicted += o.FlowsEvicted
	c.BytesDropped += o.BytesDropped
	if o.PeakFlows > c.PeakFlows {
		c.PeakFlows = o.PeakFlows
	}
	c.DeadlineFlushes += o.DeadlineFlushes
	c.FilteringNs += o.FilteringNs
	c.VerifyNs += o.VerifyNs
	c.OtherNs += o.OtherNs
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// Snapshot returns a copy of the counters. It must be called from the
// goroutine that owns c (the one mutating it through scans) — it is a
// plain struct copy, not a synchronized read. For scraping counters
// owned by another goroutine, publish them through an Atomic and use
// Atomic.Snapshot.
func (c *Counters) Snapshot() Counters { return *c }

// UsefulLaneFrac returns the average fraction of active lanes when the
// speculative filter-3 block executes, given the register width W — the
// paper's "useful elements in vector register" metric (Fig. 5b, right
// axis). Returns 0 when filter 3 never ran.
func (c *Counters) UsefulLaneFrac(w int) float64 {
	if c.Filter3Blocks == 0 || w <= 0 {
		return 0
	}
	return float64(c.Filter3UsefulLanes) / (float64(c.Filter3Blocks) * float64(w))
}

// BatchLaneFrac was the lane occupancy of the emulated lane-per-packet
// batch round, which is deleted. It returns 0 — what every daemon scan
// has read since the daemon left the emulation — and stays only because
// the frozen bench/trace.go compiles against it (core.filter.lane_frac);
// the row and this shim leave together (ROADMAP item 9).
func (c *Counters) BatchLaneFrac(w int) float64 { return 0 }

// SkipFrac returns the fraction of scanned bytes the skip-loop
// accelerator cleared without probing — the acceleration analogue of
// the filtering rate. Returns 0 when nothing was scanned.
func (c *Counters) SkipFrac() float64 {
	if c.BytesScanned == 0 {
		return 0
	}
	return float64(c.SkippedBytes) / float64(c.BytesScanned)
}

// FilteringTimeFrac returns filtering time over total measured time
// (Fig. 5b, left axis). Returns 0 when nothing was timed.
func (c *Counters) FilteringTimeFrac() float64 {
	total := c.FilteringNs + c.VerifyNs + c.OtherNs
	if total == 0 {
		return 0
	}
	return float64(c.FilteringNs) / float64(total)
}

// CandidateFrac returns the fraction of scanned positions that survived
// filtering (stored into a temporary array) — the filtering rate
// complement.
func (c *Counters) CandidateFrac() float64 {
	if c.BytesScanned == 0 {
		return 0
	}
	return float64(c.ShortCandidates+c.LongCandidates) / float64(c.BytesScanned)
}

func (c *Counters) String() string {
	return fmt.Sprintf(
		"bytes=%d f1=%d f2=%d f3=%d vecIters=%d gathers=%d(merged %d) f3blocks=%d skipped=%d(chances %d, runs %d) cand=%d/%d ht=%d verify=%d(%dB) matches=%d rules=%d(runs %d, states %d) degraded=%d(denied %d) panics=%d(quarantined %d) evicted=%d dropped=%dB peakflows=%d filter=%s verify=%s other=%s",
		c.BytesScanned, c.Filter1Probes, c.Filter2Probes, c.Filter3Probes,
		c.VectorIters, c.Gathers, c.MergedGathers, c.Filter3Blocks,
		c.SkippedBytes, c.AccelChances, c.AccelRuns,
		c.ShortCandidates, c.LongCandidates, c.HTProbes, c.VerifyAttempts,
		c.VerifyBytes, c.Matches,
		c.RuleAlerts, c.VerifierRuns, c.VerifierStates,
		c.DegradedFlows, c.VerifierBudgetExhausted,
		c.PanicsRecovered, c.FlowsQuarantined,
		c.FlowsEvicted, c.BytesDropped, c.PeakFlows,
		time.Duration(c.FilteringNs), time.Duration(c.VerifyNs), time.Duration(c.OtherNs))
}

// Stopwatch measures one phase. Usage:
//
//	sw := metrics.Start()
//	... phase ...
//	c.FilteringNs += sw.Stop()
type Stopwatch struct{ t0 time.Time }

// Start begins timing.
func Start() Stopwatch { return Stopwatch{t0: time.Now()} }

// Stop returns elapsed nanoseconds since Start.
func (s Stopwatch) Stop() int64 { return time.Since(s.t0).Nanoseconds() }

// Lap returns elapsed nanoseconds since Start (or the previous Lap) and
// restarts the stopwatch on the same clock read, so back-to-back phases
// cost one read per boundary.
func (s *Stopwatch) Lap() int64 {
	now := time.Now()
	d := now.Sub(s.t0)
	s.t0 = now
	return d.Nanoseconds()
}

// Throughput converts (bytes, elapsed ns) into gigabits per second, the
// unit all the paper's figures use.
func Throughput(bytes uint64, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(bytes) * 8 / float64(ns)
}

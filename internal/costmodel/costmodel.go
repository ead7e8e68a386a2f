// Package costmodel converts instrumented event counts into modeled
// throughput on the paper's two testbeds — the Haswell Xeon E5-2695 and
// the Xeon-Phi 3120 — standing in for hardware this reproduction cannot
// run on (pure Go has neither AVX2 intrinsics nor a Phi port).
//
// The model is deliberately simple and fully documented: every matcher
// counts its memory-touching and vector events (internal/metrics); the
// model charges each event a platform-dependent cycle cost derived from
// the platform's cache latencies, clock, vector width and pipeline style
// (out-of-order vs in-order). Modeled throughput = bytes*8*clock/cycles.
// The paper's qualitative results are *consequences* of these charges
// rather than hand-tuned outputs:
//
//   - AC pays one dependent access per byte; shallow (hot) automaton
//     states stay in L1, the rest miss with a probability that grows with
//     automaton size — so AC degrades as rule sets grow (Fig. 4a vs 4b)
//     and collapses on random input that constantly leaves the hot set.
//   - DFC/S-PATCH pay cheap, pipelinable L1 filter probes plus *long*
//     verifications that walk heap-resident hash tables — L3 traffic on
//     Haswell, device memory on Phi (no L3). That is why DFC loses to AC
//     on Phi's realistic traces (Fig. 7) while winning on Haswell
//     (Fig. 4), and why S-PATCH (far fewer long verifications) wins on
//     both.
//   - Vector algorithms replace W scalar probe+branch sequences with one
//     gather plus a few register ops, so their advantage scales with W
//     (8 on Haswell, 16 on Phi) and is larger on the in-order Phi, where
//     scalar loads and branches cannot overlap — the paper's headline
//     1.8x vs 3.6x.
//
// The counts come from lane-exact scans (metrics.Counters.LaneExact),
// which run the paper's plain Algorithms 1 and 2 with no skip loop, so
// the model has no skip term. cmd/vpatch-bench prints each figure's
// modelled throughput next to its wall-clock one.
package costmodel

import (
	"fmt"
	"math"

	"vpatch/internal/metrics"
)

// Platform holds the microarchitectural parameters of one testbed.
type Platform struct {
	Name     string
	ClockGHz float64
	// Vector width in 32-bit lanes.
	VectorLanes int
	// Cache capacities in bytes (L3Bytes = 0 means no L3, as on Phi).
	L1Bytes, L2Bytes, L3Bytes int
	// Load-to-use latencies in cycles.
	L1Lat, L2Lat, L3Lat, MemLat float64
	// ILP is the effective overlap factor for *independent* work: an
	// out-of-order core keeps several probes in flight, the in-order Phi
	// (ILP < 1) cannot even sustain one per cycle.
	ILP float64
	// BranchCost is the average per-probe branch/bookkeeping penalty of
	// the scalar filter loops.
	BranchCost float64
	// GatherLat is the effective cycle cost of one W-lane gather whose
	// elements hit the cache level holding the filters.
	GatherLat float64
	// VecOpLat is the cycle cost of one register-wide ALU/shuffle op.
	VecOpLat float64
	// ByteLoopOverhead is the scalar bookkeeping charged per scanned byte.
	ByteLoopOverhead float64
	// StoreCost is the cycle cost per candidate position for writing the
	// temporary array in the filtering round and re-reading it in the
	// verification round (the two-round algorithms only).
	StoreCost float64
	// MissBase / MissGrow parameterize the DFA hot-state model: the miss
	// fraction out of the hot set is MissBase at the last-level-cache
	// size and grows by MissGrow per doubling of the automaton beyond it.
	MissBase, MissGrow float64
}

// Haswell models the paper's Intel Xeon E5-2695 v3 (2.3 GHz, AVX2,
// 32 KB L1 / 256 KB L2 / 35 MB L3, out-of-order).
var Haswell = Platform{
	Name:        "Haswell",
	ClockGHz:    2.3,
	VectorLanes: 8,
	L1Bytes:     32 << 10, L2Bytes: 256 << 10, L3Bytes: 35 << 20,
	L1Lat: 4, L2Lat: 12, L3Lat: 40, MemLat: 200,
	ILP:              4.0,
	BranchCost:       2,
	GatherLat:        8,
	VecOpLat:         1,
	ByteLoopOverhead: 1.0,
	StoreCost:        4,
	MissBase:         0.12,
	MissGrow:         0.013,
}

// XeonPhi models the Xeon-Phi 3120 (1.1 GHz, 512-bit vectors, 32 KB L1 /
// 512 KB L2 per core, no L3, in-order).
var XeonPhi = Platform{
	Name:        "Xeon-Phi",
	ClockGHz:    1.1,
	VectorLanes: 16,
	L1Bytes:     32 << 10, L2Bytes: 512 << 10, L3Bytes: 0,
	L1Lat: 3, L2Lat: 24, L3Lat: 0, MemLat: 300,
	ILP:              0.6,
	BranchCost:       5,
	GatherLat:        10,
	VecOpLat:         1,
	ByteLoopOverhead: 2.0,
	StoreCost:        4,
	MissBase:         0.03,
	MissGrow:         0.029,
}

// verifyFloorBytes is the minimum effective size of the verification
// working set (hash tables + pattern data are heap-scattered), keeping
// long-verification traffic out of L1/L2 on every platform.
const verifyFloorBytes = 2 << 20

// latencyFor returns the load-to-use latency for a structure of the given
// size, by the cache level it fits in.
func (p *Platform) latencyFor(bytes int) float64 {
	switch {
	case bytes <= p.L1Bytes:
		return p.L1Lat
	case bytes <= p.L2Bytes:
		return p.L2Lat
	case p.L3Bytes > 0 && bytes <= p.L3Bytes:
		return p.L3Lat
	default:
		return p.MemLat
	}
}

// lastCacheBytes is the capacity of the last cache level.
func (p *Platform) lastCacheBytes() int {
	if p.L3Bytes > 0 {
		return p.L3Bytes
	}
	return p.L2Bytes
}

// probeCost is the per-probe cycle cost of the scalar filter loops:
// an L1 load plus branch work, overlapped by the pipeline.
func (p *Platform) probeCost() float64 { return (p.L1Lat + p.BranchCost) / p.ILP }

// dfaAccessCost models one dependent Aho-Corasick transition with a
// two-tier miss model: hot (shallow) states hit L1; a MissBase fraction
// spills to the last cache level; automatons larger than the last level
// additionally send a fraction growing with log2(size/lastLevel) to
// memory.
func (p *Platform) dfaAccessCost(dfaBytes int) float64 {
	if dfaBytes <= p.L2Bytes {
		return p.latencyFor(dfaBytes)
	}
	last := p.lastCacheBytes()
	missLast := p.MissBase
	missMem := 0.0
	if dfaBytes > last {
		missMem = p.MissGrow * math.Log2(float64(dfaBytes)/float64(last))
		if missMem > 0.6 {
			missMem = 0.6
		}
	}
	spill := p.MemLat
	if p.L3Bytes > 0 {
		spill = p.L3Lat
	} else {
		// No L3: the base spill already goes to memory.
		missMem += missLast
		missLast = 0
	}
	return (1-missLast-missMem)*p.L1Lat + missLast*spill + missMem*p.MemLat
}

// Kind identifies the algorithm family being modeled; it selects which
// event groups carry the cost.
type Kind int

const (
	KindAhoCorasick Kind = iota
	KindDFC
	KindVectorDFC
	KindSPatch
	KindVPatch
)

func (k Kind) String() string {
	switch k {
	case KindAhoCorasick:
		return "Aho-Corasick"
	case KindDFC:
		return "DFC"
	case KindVectorDFC:
		return "Vector-DFC"
	case KindSPatch:
		return "S-PATCH"
	case KindVPatch:
		return "V-PATCH"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Inputs bundles everything the model needs for one run.
type Inputs struct {
	Kind     Kind
	Counters *metrics.Counters
	// Structure sizes, deciding which cache level serves each access.
	DFABytes int // AC transition structure
	HTBytes  int // verification hash tables
	// VectorWidth of the *measured* run (lanes). The model rescales
	// vector work to the platform's native width, so a W=8 measurement
	// can be projected onto the 16-lane Phi.
	VectorWidth int
}

// Result is the model's output.
type Result struct {
	Cycles float64
	Gbps   float64
	// Breakdown maps component name to cycles, for analysis output.
	Breakdown map[string]float64
}

// Estimate models one run on platform p.
func Estimate(p Platform, in Inputs) Result {
	c := in.Counters
	bd := make(map[string]float64)
	// Components are summed in this fixed order, not map order, so a
	// run's figure is reproducible to the last bit.
	total := 0.0
	add := func(name string, cycles float64) {
		bd[name] = cycles
		total += cycles
	}

	// Per-byte scan-loop bookkeeping; vector algorithms amortize it over
	// the register width.
	loop := float64(c.BytesScanned) * p.ByteLoopOverhead / p.ILP
	if in.Kind == KindVectorDFC || in.Kind == KindVPatch {
		loop /= float64(p.VectorLanes)
	}
	add("loop", loop)

	switch in.Kind {
	case KindAhoCorasick:
		// Dependent chain: no ILP overlap possible.
		add("dfa", float64(c.DFAAccesses)*p.dfaAccessCost(in.DFABytes))

	case KindDFC, KindSPatch:
		probes := float64(c.Filter1Probes + c.Filter2Probes + c.Filter3Probes)
		add("filter", probes*p.probeCost())
		if in.Kind == KindSPatch {
			// Two-round structure: candidates are stored, then re-read.
			add("stores", float64(c.ShortCandidates+c.LongCandidates)*p.StoreCost/p.ILP)
		}

	case KindVectorDFC, KindVPatch:
		// Rescale the measured vector work to the platform's lanes: the
		// same positions need measuredW/platformW as many gathers/ops.
		scale := 1.0
		if in.VectorWidth > 0 {
			scale = float64(in.VectorWidth) / float64(p.VectorLanes)
		}
		add("gather", float64(c.Gathers)*p.GatherLat*scale)
		// Register ops per block: shuffles, shifts, mask logic,
		// movemask ≈ 8 ops, pipelined like other ALU work.
		add("vecops", float64(c.VectorIters)*8*p.VecOpLat*scale/p.ILP)
		if in.Kind == KindVectorDFC {
			// Inline scalar continuation after vector hits.
			add("filter", float64(c.Filter2Probes+c.Filter3Probes)*p.probeCost())
		} else {
			add("stores", float64(c.ShortCandidates+c.LongCandidates)*p.StoreCost/p.ILP)
		}
	}

	// Verification. Both short and long candidates perform dependent
	// probes into heap-resident tables (direct-address tables for 1-3 B
	// patterns, compact hash tables + pattern data for >= 4 B). Short
	// probes touch roughly half the chain of a long verification.
	htBytes := in.HTBytes
	if htBytes < verifyFloorBytes {
		htBytes = verifyFloorBytes
	}
	add("verify-short", float64(c.ShortCandidates)*p.latencyFor(htBytes)/1.6)
	add("verify-long", float64(c.LongCandidates)*p.latencyFor(htBytes))
	add("compare", (float64(c.VerifyBytes)/4+float64(c.VerifyAttempts)*2)/p.ILP)

	gbps := 0.0
	if total > 0 {
		gbps = float64(c.BytesScanned) * 8 * p.ClockGHz / total
	}
	return Result{Cycles: total, Gbps: gbps, Breakdown: bd}
}

// VerifierPrice is the modeled cycle charge for one unit of rule-tier
// verifier work, derived from a platform's latencies. The overload
// layer (internal/resil) prices every anchored verification against
// per-flow and per-tenant budgets denominated in these cycles, so a
// match-flood attacker buys exactly as much DFA work as the budget
// allows and not a cycle more. All three charges are integers so the
// hot path can price a batch with two multiplies and an add.
type VerifierPrice struct {
	// PerRun is the fixed charge per verification started at a
	// literal-hit anchor: setup plus the anchored window walked through
	// L1-resident DFA rows.
	PerRun int64
	// PerState is the charge per lazy-DFA state constructed — the
	// cache-cold NFA-set chase that crafted anchors try to force over
	// and over; it dominates under attack.
	PerState int64
	// PerHit is the charge per anchor hit processed (clause-state
	// bookkeeping bytes appended and re-read).
	PerHit int64
}

// VerifierPrice derives the rule-tier verifier charges from the
// platform parameters.
func (p *Platform) VerifierPrice() VerifierPrice {
	// A typical anchored run walks a short window of bytes through
	// already-built rows (dependent L1 loads), after fixed dispatch and
	// clause-window setup.
	const runWindowBytes = 64
	run := runWindowBytes*p.L1Lat/p.ILP + 5*p.BranchCost
	// State construction is heap-scattered pointer chasing.
	state := p.MemLat
	hit := (2*p.L1Lat + p.BranchCost) / p.ILP
	return VerifierPrice{
		PerRun:   int64(math.Ceil(run)),
		PerState: int64(math.Ceil(state)),
		PerHit:   int64(math.Ceil(hit)),
	}
}

// Cost prices a batch of verifier work in modeled cycles.
func (v VerifierPrice) Cost(runs, states, hits uint64) int64 {
	return int64(runs)*v.PerRun + int64(states)*v.PerState + int64(hits)*v.PerHit
}

// Package ids assembles the full NIDS pipeline the paper's system model
// assumes around the matcher: captured segments are reassembled into
// per-flow protocol streams, each flow is matched only against the rule
// groups relevant to its service ("patterns are organized in groups,
// depending on the type of traffic ... the reassembled payload is
// matched only against patterns that are relevant", paper §V-A), and
// matches surface as alerts with flow context and absolute stream
// offsets.
//
// The compiled rule groups serialize as one database file
// (Engine.WriteDB / ReadDB), so production deployments compile the
// rule set offline once — `vpatch-compile -ids` — and every worker
// process loads it at startup instead of parsing the rule text and
// splitting it into group subsets again.
//
// Rule groups are compiled exactly once, into immutable vpatch.Engines.
// An Engine holds that compiled state; the scan state lives in Shards —
// NewShard once per worker goroutine, or a Dispatcher that runs N of
// them. Every shard shares the compiled groups (the expensive state)
// and owns only its flow table, reassembler and scan sessions, so
// adding a worker costs scratch buffers, not a recompilation of the
// rule set. Only an engine built with a non-nil alert sink carries one
// Shard of its own, driven through the Engine's HandleSegment/Flush,
// for single-goroutine callers; built with a nil sink it is compiled
// state alone.
//
// Scanning is batched: reassembled payloads accumulate per protocol
// group and flush through vpatch.Session.ScanBatch once a group reaches
// a buffer-count or byte watermark, so a group of (mostly small)
// payloads costs one filtering round and one verification round — the
// paper's cache-sized two-round structure — instead of one Scan call,
// its set-up and its clock reads each. Alerts therefore surface at flush
// time. A Dispatcher also flushes every group whose oldest job has waited
// MaxAlertDelay, so its alerts leave within a bounded delay; a bare Shard
// (or Engine.HandleSegment) keeps no timer of its own, and its caller
// calls Flush after the last segment to drain partial batches.
//
// # Flow lifecycle and memory bounds
//
// Shards manage connection lifecycle so memory stays bounded on real
// traffic: FIN/RST segments tear flows down (the flow's carry is
// released; alerts from already-enqueued scan jobs still surface at the
// next flush), and Shard.SetLimits arms a hard cap on tracked flows, an
// idle timeout on the capture clock, and out-of-order byte budgets (see
// netsim.Limits for the drop policy). Evicting an open flow first
// flushes its group's pending scan jobs, so no enqueued alert is lost.
// Shard.Stats reports the lifecycle counters (evictions, teardowns,
// dropped bytes, peak flows).
//
// For multi-core capture, Engine.NewDispatcher hash-partitions flows
// across N worker shards, each on its own goroutine.
package ids

import (
	"fmt"
	"time"

	"vpatch"
	"vpatch/internal/arena"
	"vpatch/internal/metrics"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/resil"
	"vpatch/internal/resil/chaos"
	"vpatch/internal/rules"
)

// Alert is one confirmed detection in a flow's stream. Engines built
// from a plain pattern set (NewEngine) emit one alert per literal
// occurrence; rule-conditioned engines (NewRuleEngine) emit one alert
// per completed rule, at most once per rule per flow.
type Alert struct {
	Flow netsim.FlowKey
	// StreamOffset is the alert position within the flow's reassembled
	// payload stream: the literal occurrence's start, or — for rule
	// alerts — the start of the rule's final clause match.
	StreamOffset int64
	// PatternID indexes the engine's original pattern set; -1 on rule
	// alerts (a rule spans several literals).
	PatternID int32
	// RuleID indexes the engine's rule set (rules.Set order); -1 on
	// literal alerts.
	RuleID int32
}

// Engine holds the compiled per-protocol rule groups (and, for rule
// engines, the rule set) — immutable and shared by any number of
// Shards. An engine built with a non-nil alert sink also owns a default
// Shard that its HandleSegment/Flush/SetLimits/SetVerifierBudget/Stats
// drive (single-goroutine); built with a nil sink it has none, and
// those methods panic.
type Engine struct {
	set    *vpatch.PatternSet
	groups map[vpatch.Protocol]*group
	// rules, when non-nil, layers the rule-semantics tier over the
	// groups: the groups prefilter the rule set's literals and every
	// shard evaluates clause conditions and regex tails on the hits
	// (see NewRuleEngine).
	rules *rules.Set

	def *Shard // nil when built without an alert sink
}

// errNoDefaultShard is the panic value of a default-shard method called
// on an engine built with a nil alert sink.
const errNoDefaultShard = "ids: engine built with a nil alert sink has no default shard; use NewShard or a dispatcher"

// group is one compiled rule group: the protocol's own rules plus the
// generic rules, with the subset->original pattern ID mapping. The
// vpatch.Engine is immutable; every shard scans it through its own
// session.
type group struct {
	eng    *vpatch.Engine
	origID []int32 // subset pattern ID -> original set pattern ID
}

// Flush watermarks: a group's pending batch is scanned once it holds
// DefaultBatchBufs buffers or DefaultBatchBytes bytes, whichever comes
// first. They are constants, not knobs: scan-per-payload (watermark 1)
// was measured and costs 4-12 % CPU per byte (see ROADMAP item 7).
const (
	DefaultBatchBufs  = 32
	DefaultBatchBytes = 256 << 10
)

// MaxAlertDelay bounds how long a dispatcher shard's group batch waits
// for a watermark: a group whose oldest job has waited this long is
// flushed by its worker. A constant like the watermarks: at full rate
// the watermarks come first and it never fires.
const MaxAlertDelay = 5 * time.Millisecond

// Shard is one worker's view of the pipeline: it shares the Engine's
// compiled rule groups and owns everything mutable — the reassembler,
// the flow table, per-group pending batches, and one scan session per
// group. Flows must be partitioned across shards by the caller (hash
// the FlowKey); a Shard is single-goroutine, distinct Shards are fully
// independent.
type Shard struct {
	parent *Engine
	emit   func(Alert)

	reasm *netsim.Reassembler
	flows map[netsim.FlowKey]*flowState
	// sessions holds this shard's per-group scan state: one session per
	// compiled group, shared by all of the shard's flows (a shard is one
	// goroutine, so flows never scan concurrently).
	sessions map[*group]*vpatch.Session
	// pending accumulates scan jobs per group until a watermark flushes
	// them through ScanBatch. The watermarks are DefaultBatchBufs/Bytes;
	// they are fields so in-package tests can pin flush points.
	pending       map[*group]*groupBatch
	maxBatchBufs  int
	maxBatchBytes int

	// Observer publication (see SetObserver), the shard's one
	// instrumentation path: scans count into obsScratch, which is folded
	// into obsScan at every flush (an unobserved shard scans with nil
	// counters); flow lifecycle stats are published into obsFlow at
	// flushes and every obsPublishEvery segments.
	obsScan      *metrics.Atomic
	obsFlow      *netsim.AtomicStats
	obsScratch   vpatch.Counters
	segsSinceObs int

	// Rule tier (rule-conditioned engines only): the shard's clause/
	// regex evaluator and the per-flush hit collection buffer (literal
	// hits are gathered per batch, ordered per buffer by match end, and
	// replayed through the evaluator — see evalRuleHits).
	ev       *rules.Eval
	ruleHits []ruleHit

	// vbudget, when armed, prices every flushed buffer's verifier work
	// and demotes over-budget flows to literal-only alerting (see
	// SetVerifierBudget).
	vbudget resil.VerifierBudget

	// quarantined holds flows whose segment handling panicked (see
	// recoverSegmentPanic); their later segments are dropped so one
	// poisoned flow cannot re-kill the shard.
	quarantined map[netsim.FlowKey]struct{}
}

// maxQuarantined bounds the quarantine set; beyond it, panicking flows
// are still torn down and counted but not blacklisted (a shard in that
// state has bigger problems than repeat offenders).
const maxQuarantined = 4096

// obsPublishEvery is how many segments a shard handles between
// flow-stats publications to its observer (flushes also publish). Low
// enough that scraped gauges track the pipeline closely, high enough
// that the atomic stores stay invisible next to reassembly work.
const obsPublishEvery = 64

// flowState is the per-flow stream bookkeeping the batched pipeline
// keeps between payload arrivals: the carry (last maxPatternLen-1
// stream bytes, so matches spanning payload boundaries are found) and
// the absolute stream offset. It advances at enqueue time — not at scan
// time — so several payloads of one flow can sit in the same batch and
// still chain correctly.
type flowState struct {
	key      netsim.FlowKey
	g        *group
	maxLen   int
	carry    []byte
	consumed int64 // stream bytes absorbed (end of carry)
	// vbudget is the flow's remaining verifier budget in modeled cycles
	// (budget-armed rule engines only); degraded marks a flow demoted
	// to literal-only alerting after exhaustion.
	vbudget  int64
	degraded bool
	// rstate is the flow's rule-evaluation progress (rule-conditioned
	// engines only, nil otherwise). It lives on the flowState — in
	// reassembly-ordered absolute stream offsets — so clause distance/
	// within spans and suspended regex verifications carry across
	// segment and batch boundaries exactly like the literal carry does.
	rstate *rules.FlowState
}

// groupBatch is one protocol group's pending scan jobs: the buffers
// (each carry+payload, copied so reassembler memory can be reused) and
// per-buffer metadata to translate matches back into stream alerts.
// Flushed buffers park on free and are recycled by the next payloads,
// so steady-state batching allocates nothing.
type groupBatch struct {
	bufs  [][]byte
	meta  []batchEntry
	bytes int
	since time.Time // when the oldest pending job was enqueued
	free  [][]byte
	// onMatch is the batch's ScanBatch callback, built once — a fresh
	// closure per flush would put one heap allocation on the
	// steady-state ingest path.
	onMatch func(buf int, m vpatch.Match)
}

// takeBuf returns an empty buffer for a job of about n bytes,
// recycling a flushed one when available. An undersized recycled buffer
// is still returned — the caller's appends grow it and the grown buffer
// re-enters the pool, so the pool converges to right-sized buffers.
func (pb *groupBatch) takeBuf(n int) []byte {
	if k := len(pb.free); k > 0 {
		buf := pb.free[k-1]
		pb.free = pb.free[:k-1]
		return buf[:0]
	}
	return make([]byte, 0, n)
}

type batchEntry struct {
	fs       *flowState
	carryLen int   // prefix already scanned by an earlier batch
	base     int64 // stream offset of the buffer's first byte
}

// maxLen is the longest pattern of the group (at least 1): a flow's
// carry keeps maxLen-1 stream bytes.
func (g *group) maxLen() int { return max(g.eng.Set().MaxLen(), 1) }

// protocols that get a dedicated group; anything else uses the generic
// group alone.
var groupedProtocols = []vpatch.Protocol{
	vpatch.ProtoHTTP, vpatch.ProtoDNS, vpatch.ProtoFTP, vpatch.ProtoSMTP,
}

// allProtocols is the deterministic group order — the generic group
// (flows of unclassified services) first, then the dedicated protocol
// groups — used to compile groups and to lay them out in a database.
var allProtocols = append([]vpatch.Protocol{vpatch.ProtoGeneric}, groupedProtocols...)

// NewEngine compiles one matcher per protocol group from set, using opt
// for every group. A non-nil emit attaches a default shard delivering
// alerts to it; with a nil emit the engine is compiled state only, for
// callers that run their own shards (NewShard, NewDispatcher).
func NewEngine(set *vpatch.PatternSet, opt vpatch.Options, emit func(Alert)) (*Engine, error) {
	return compileEngine(set, nil, opt, emit)
}

// compileEngine compiles set's protocol groups under opt, layering rset
// (nil for literal engines) over them, and attaches a default shard
// when emit is non-nil.
func compileEngine(set *vpatch.PatternSet, rset *rules.Set, opt vpatch.Options, emit func(Alert)) (*Engine, error) {
	e := &Engine{
		set:    set,
		groups: make(map[vpatch.Protocol]*group),
		rules:  rset,
	}
	for _, proto := range allProtocols {
		g, err := buildGroup(set, proto, opt)
		if err != nil {
			return nil, err
		}
		if g != nil {
			e.groups[proto] = g
		}
	}
	return e.withDefaultShard(emit), nil
}

// withDefaultShard attaches the default shard when emit is non-nil.
func (e *Engine) withDefaultShard(emit func(Alert)) *Engine {
	if emit != nil {
		e.def = e.NewShard(emit)
	}
	return e
}

// shard returns the default shard, panicking when the engine has none.
func (e *Engine) shard() *Shard {
	if e.def == nil {
		panic(errNoDefaultShard)
	}
	return e.def
}

// buildGroup compiles the subset applicable to proto (its own rules +
// generic rules), remembering original pattern IDs. Returns nil when the
// subset is empty.
func buildGroup(set *vpatch.PatternSet, proto vpatch.Protocol, opt vpatch.Options) (*group, error) {
	sub := vpatch.NewPatternSet()
	var orig []int32
	for i := range set.Patterns() {
		p := &set.Patterns()[i]
		if p.Proto != proto && p.Proto != vpatch.ProtoGeneric {
			continue
		}
		id := sub.Add(p.Data, p.Nocase, p.Proto)
		if int(id) == len(orig) {
			orig = append(orig, p.ID)
		}
		// Duplicates inside the subset keep the first original ID.
	}
	if sub.Len() == 0 {
		return nil, nil
	}
	eng, err := vpatch.Compile(sub, opt)
	if err != nil {
		return nil, fmt.Errorf("ids: compiling %v group: %w", proto, err)
	}
	return &group{eng: eng, origID: orig}, nil
}

// NewShard returns a fresh worker shard over the engine's compiled rule
// groups, delivering its alerts to emit (must be non-nil). Shards are
// cheap — scratch buffers and maps, never a recompile — so one per
// worker goroutine is the intended deployment. Each shard must only see
// its own partition of the flows (reassembly state is per-shard).
func (e *Engine) NewShard(emit func(Alert)) *Shard {
	if emit == nil {
		panic("ids: nil alert sink")
	}
	s := &Shard{
		parent:        e,
		emit:          emit,
		flows:         make(map[netsim.FlowKey]*flowState),
		sessions:      make(map[*group]*vpatch.Session, len(e.groups)),
		pending:       make(map[*group]*groupBatch, len(e.groups)),
		maxBatchBufs:  DefaultBatchBufs,
		maxBatchBytes: DefaultBatchBytes,
	}
	if e.rules != nil {
		s.ev = rules.NewEval(e.rules)
	}
	s.reasm = netsim.NewReassembler(s.onPayload)
	s.reasm.OnClose(s.onFlowClose)
	return s
}

// SetLimits arms the shard's flow-lifecycle bounds: flow cap, idle
// timeout and out-of-order byte budgets (see netsim.Limits). The zero
// value means unlimited — the polite-traffic mode; production shards
// facing real capture should always set limits.
func (s *Shard) SetLimits(l netsim.Limits) { s.reasm.SetLimits(l) }

// SetArena rebases the shard's reassembly buffer recycling onto an
// arena pool (dispatcher-created shards get the dispatcher's arena
// automatically). Follows the shard's single-goroutine rule: set
// before the shard starts handling segments.
func (s *Shard) SetArena(a *arena.Arena) { s.reasm.SetArena(a.NewLocal()) }

// Stats reports the shard's flow-lifecycle counters: tracked/peak
// flows, teardowns, evictions, dropped bytes and pending out-of-order
// bytes. Fold them into scan counters with netsim.Stats.MergeInto.
func (s *Shard) Stats() netsim.Stats { return s.reasm.Stats() }

// SetVerifierBudget arms the shard's match-flood defense: flushed
// buffers' verifier work is priced (b.Price) and charged against each
// flow's b.PerFlow budget and the shared b.Pool; the first uncovered
// charge demotes the flow to literal-only alerting (suspended
// verifications are settled first, so no already-anchored alert is
// lost). Follows the shard's single-goroutine rule: arm before the
// shard starts handling segments. The zero value disarms.
func (s *Shard) SetVerifierBudget(b resil.VerifierBudget) { s.vbudget = b }

// SetVerifierBudget arms the default shard's match-flood defense (see
// Shard.SetVerifierBudget).
func (e *Engine) SetVerifierBudget(b resil.VerifierBudget) { e.shard().SetVerifierBudget(b) }

// SetObserver attaches race-safe publication sinks to the shard — its
// one instrumentation path, and the mechanism resident services use to
// scrape a running pipeline: scan counters (bytes scanned, candidates,
// verification work, matches, skip tallies, per-round time) accumulate
// privately and are folded into scan (atomically) at every batch flush;
// flow-lifecycle stats are stored into flow at flushes and every few
// dozen segments. Either sink may be nil. Counters never change which
// kernels run; they cost a few clock reads per batch flush. Readers
// call scan.Snapshot / flow.Load from any goroutine at any time; after
// Flush the snapshot holds the shard's final tallies. SetObserver
// follows the shard's single-goroutine rule (attach before the shard
// starts handling segments).
func (s *Shard) SetObserver(scan *metrics.Atomic, flow *netsim.AtomicStats) {
	s.obsScan = scan
	s.obsFlow = flow
}

// counters returns the target the shard's scans count into: the
// observer's private scratch, or nil on an unobserved shard.
func (s *Shard) counters() *vpatch.Counters {
	if s.obsScan != nil {
		return &s.obsScratch
	}
	return nil
}

// publishCounters folds the scratch counts into the observer.
func (s *Shard) publishCounters() {
	if s.obsScan != nil {
		s.obsScan.AddCounters(&s.obsScratch)
		s.obsScratch.Reset()
	}
}

// publishFlowStats stores the reassembler's current lifecycle stats
// into the observer slot, when one is attached.
func (s *Shard) publishFlowStats() {
	if s.obsFlow != nil {
		s.obsFlow.Store(s.reasm.Stats())
	}
}

// onFlowClose releases a flow's scan state when the reassembler stops
// tracking it. On normal teardown (FIN/RST) the carry is dropped and
// enqueued scan jobs simply surface at the next flush — they hold their
// own copies of the stream bytes. On eviction the flow's group batch is
// flushed first, so alerts from an evicted flow's enqueued jobs are
// delivered before the pipeline forgets it.
func (s *Shard) onFlowClose(k netsim.FlowKey, evicted bool) {
	fs := s.flows[k]
	if fs == nil {
		return
	}
	if evicted || fs.rstate != nil {
		// Flush only when the batch actually holds jobs of this flow:
		// under flow-cap churn most evicted flows were flushed by a
		// watermark long ago, and flushing the shared group batch for
		// each of them would collapse batching back to scan-per-payload.
		// Rule-conditioned flows flush on normal teardown too — their
		// enqueued jobs need the flow's rule state, settled below.
		if pb := s.pending[fs.g]; pb != nil && pb.hasJobs(fs) {
			s.flushGroup(fs.g, pb)
		}
	}
	if fs.rstate != nil {
		// The stream has ended: settle suspended regex verifications so
		// an accepted anchor queued behind a now-unresolvable one fires.
		s.ev.FinishFlow(fs.rstate, s.counters(), s.ruleEmitter(fs))
		fs.rstate = nil
	}
	fs.carry = nil
	delete(s.flows, k)
}

// rebind moves the shard onto engine e — a rule reload — keeping its
// flow plane: the reassembler, tombstones and quarantine are untouched,
// and every live flow keeps its stream position, carry bytes, verifier
// budget and degraded mark. The caller flushes the shard first, so no
// job of the old engine is pending. Per flow:
//   - the group is re-resolved by service port; a flow whose service
//     has no group under e loses its scan state and stops scanning;
//   - the carry is trimmed to e's maxLen-1. When e's maxLen is longer,
//     the one boundary at the swap is covered only to the old length
//     (the carry regrows from the next payload on);
//   - rule state is settled on the old engine (suspended verifications
//     resolve, their alerts go out through the old sink) and restarts
//     under e with the rules that already alerted carried by sid
//     (rules.FlowState.Carry). Clause progress does not survive a swap,
//     and a rule without a sid (SID 0) may alert again.
func (s *Shard) rebind(e *Engine, sids map[int64][]int32) {
	c := s.counters()
	for k, fs := range s.flows {
		var next *rules.FlowState
		if fs.rstate != nil {
			s.ev.FinishFlow(fs.rstate, c, s.ruleEmitter(fs))
			if e.rules != nil {
				next = fs.rstate.Carry(s.parent.rules, sids)
			}
		} else if e.rules != nil && !fs.degraded {
			next = rules.NewFlowState(protoForPort(k.DstPort))
		}
		g := e.groupFor(k)
		if g == nil {
			delete(s.flows, k)
			continue
		}
		fs.g, fs.maxLen, fs.rstate = g, g.maxLen(), next
		if keep := fs.maxLen - 1; len(fs.carry) > keep {
			fs.carry = append(fs.carry[:0], fs.carry[len(fs.carry)-keep:]...)
		}
	}
	s.parent = e
	s.sessions = make(map[*group]*vpatch.Session, len(e.groups))
	s.pending = make(map[*group]*groupBatch, len(e.groups))
	s.ev = nil
	if e.rules != nil {
		s.ev = rules.NewEval(e.rules)
	}
}

// hasJobs reports whether the batch holds an enqueued scan job for fs
// (meta is at most a watermark's worth of entries).
func (pb *groupBatch) hasJobs(fs *flowState) bool {
	for i := range pb.meta {
		if pb.meta[i].fs == fs {
			return true
		}
	}
	return false
}

// Set returns the full rule set the engine's groups were compiled from.
func (e *Engine) Set() *vpatch.PatternSet { return e.set }

// Algorithm returns the matching algorithm the rule groups were
// compiled with (all groups share one).
func (e *Engine) Algorithm() vpatch.Algorithm {
	for _, g := range e.groups {
		return g.eng.Algorithm()
	}
	return 0
}

// GroupSizes reports the number of patterns compiled per protocol group.
func (e *Engine) GroupSizes() map[vpatch.Protocol]int {
	out := make(map[vpatch.Protocol]int, len(e.groups))
	for proto, g := range e.groups {
		out[proto] = g.eng.Set().Len()
	}
	return out
}

// protoForPort classifies a flow by its destination service port,
// through the same patterns.ServicePorts table the rule parser buckets
// rules with — a rule written for a port always compiles into the group
// its flows are scanned against.
func protoForPort(port uint16) vpatch.Protocol {
	return patterns.ProtoForPort(port)
}

// groupFor picks the compiled group for a flow, falling back to the
// generic group when the service has no dedicated rules.
func (e *Engine) groupFor(k netsim.FlowKey) *group {
	if g, ok := e.groups[protoForPort(k.DstPort)]; ok {
		return g
	}
	return e.groups[vpatch.ProtoGeneric]
}

// ScanBuffer matches one self-contained buffer against the rule groups
// a flow to the given service port would be scanned with (port 0, or
// any unclassified port, selects the generic group), reporting each
// occurrence's original pattern ID and offset. Unlike the segment
// pipeline it involves no flow state, so it is safe for concurrent use
// from any number of goroutines — the one-shot scan surface a resident
// scanning service exposes per request. c, when non-nil, accumulates
// scan instrumentation and must be private to the caller. Returns the
// number of matches.
func (e *Engine) ScanBuffer(port uint16, data []byte, c *vpatch.Counters, emit func(patternID int32, pos int64)) int {
	g := e.groupFor(netsim.FlowKey{DstPort: port})
	if g == nil {
		return 0
	}
	n := 0
	g.eng.Scan(data, c, func(m vpatch.Match) {
		n++
		if emit != nil {
			emit(g.origID[m.PatternID], int64(m.Pos))
		}
	})
	return n
}

// HandleSegment feeds one captured segment through the default shard.
// Single-goroutine; multi-core callers use NewShard and feed each shard
// its flow partition.
func (e *Engine) HandleSegment(seg netsim.Segment) { e.shard().HandleSegment(seg) }

// Flush drains the default shard's pending batches (see Shard.Flush).
func (e *Engine) Flush() { e.shard().Flush() }

// SetLimits arms the default shard's flow-lifecycle bounds (see
// Shard.SetLimits).
func (e *Engine) SetLimits(l netsim.Limits) { e.shard().SetLimits(l) }

// Stats reports the default shard's flow-lifecycle counters (see
// Shard.Stats).
func (e *Engine) Stats() netsim.Stats { return e.shard().Stats() }

// HandleSegment feeds one captured segment through reassembly and
// matching. Segments may arrive reordered or duplicated. Handing a
// segment to the pipeline transfers payload ownership: arena-owned
// payloads (Segment.SetOwned) are released — and their chunks recycled
// — once reassembly has absorbed the bytes.
func (s *Shard) HandleSegment(seg netsim.Segment) {
	s.reasm.Add(seg)
	seg.ReleasePayload()
	s.bumpObs()
}

// bumpObs publishes flow stats every obsPublishEvery segments when an
// observer is attached.
func (s *Shard) bumpObs() {
	if s.obsFlow != nil {
		if s.segsSinceObs++; s.segsSinceObs >= obsPublishEvery {
			s.segsSinceObs = 0
			s.obsFlow.Store(s.reasm.Stats())
		}
	}
}

// handleSegmentSafe is the dispatcher workers' entry: segment handling
// wrapped in per-segment panic recovery, plus the quarantine filter.
// A panic tears down and blacklists the offending flow while the shard
// — and every other flow on it — keeps scanning. The body mirrors
// HandleSegment rather than calling it so the recovery path knows
// whether the payload chunk was already returned (released exactly
// once whether the panic lands before or inside reassembly).
func (s *Shard) handleSegmentSafe(seg netsim.Segment) {
	if s.quarantined != nil {
		if _, bad := s.quarantined[seg.Flow]; bad {
			seg.ReleasePayload()
			return
		}
	}
	absorbed := false
	defer func() {
		if r := recover(); r != nil {
			if !absorbed {
				seg.ReleasePayload()
			}
			s.recoverSegmentPanic(seg.Flow)
		}
	}()
	if chaos.Armed() {
		chaos.Fire(chaos.ShardSegment, seg.Flow)
	}
	s.reasm.Add(seg)
	absorbed = true
	seg.ReleasePayload()
	s.bumpObs()
}

// recoverSegmentPanic contains the damage of a panic during one
// segment's handling: count it, quarantine the flow, and tear its
// state down through the normal RST path so alerts already enqueued
// for it still surface at the teardown flush. The teardown itself runs
// under a nested recover — the flow's reassembly state may be the
// corrupted party — with a map-drop fallback.
func (s *Shard) recoverSegmentPanic(k netsim.FlowKey) {
	c := s.counters()
	if c != nil {
		c.PanicsRecovered++
	}
	if s.quarantined == nil {
		s.quarantined = make(map[netsim.FlowKey]struct{})
	}
	if _, dup := s.quarantined[k]; !dup && len(s.quarantined) < maxQuarantined {
		s.quarantined[k] = struct{}{}
		if c != nil {
			c.FlowsQuarantined++
		}
	}
	func() {
		defer func() { _ = recover() }()
		s.reasm.Add(netsim.Segment{Flow: k, Flags: netsim.FlagRST})
	}()
	delete(s.flows, k)
}

// session returns the shard's scan session for g, creating it on first
// use.
func (s *Shard) session(g *group) *vpatch.Session {
	sess := s.sessions[g]
	if sess == nil {
		sess = g.eng.NewSession()
		s.sessions[g] = sess
	}
	return sess
}

// onPayload receives contiguous stream bytes from the reassembler and
// enqueues one scan job (carry + new bytes) on the flow's group batch,
// flushing the group once a watermark is reached.
func (s *Shard) onPayload(k netsim.FlowKey, payload []byte) {
	if len(payload) == 0 {
		return
	}
	fs := s.flows[k]
	if fs == nil {
		g := s.parent.groupFor(k)
		if g == nil {
			return // no rules apply to this service at all
		}
		fs = &flowState{key: k, g: g, maxLen: g.maxLen(), vbudget: s.vbudget.PerFlow}
		if s.ev != nil {
			fs.rstate = rules.NewFlowState(protoForPort(k.DstPort))
		}
		s.flows[k] = fs
	}

	// The scan job: carry + payload, copied into batch-owned memory (the
	// reassembler may reuse payload before the batch flushes).
	pb := s.pending[fs.g]
	if pb == nil {
		pb = &groupBatch{}
		s.pending[fs.g] = pb
	}
	buf := pb.takeBuf(len(fs.carry) + len(payload))
	buf = append(buf, fs.carry...)
	buf = append(buf, payload...)
	carryLen := len(fs.carry)
	base := fs.consumed - int64(carryLen)

	// Advance the stream state now, so a later payload of this flow —
	// possibly enqueued in the same batch — chains on the right carry.
	fs.consumed += int64(len(payload))
	keep := fs.maxLen - 1
	if keep > len(buf) {
		keep = len(buf)
	}
	fs.carry = append(fs.carry[:0], buf[len(buf)-keep:]...)

	if len(pb.bufs) == 0 {
		pb.since = time.Now()
	}
	pb.bufs = append(pb.bufs, buf)
	pb.meta = append(pb.meta, batchEntry{fs: fs, carryLen: carryLen, base: base})
	pb.bytes += len(buf)
	if len(pb.bufs) >= s.maxBatchBufs || pb.bytes >= s.maxBatchBytes {
		s.flushGroup(fs.g, pb)
	}
}

// flushGroup scans one group's pending batch and emits its alerts.
func (s *Shard) flushGroup(g *group, pb *groupBatch) {
	if len(pb.bufs) == 0 {
		return
	}
	// With an observer attached, scans instrument a private scratch
	// that is folded into the atomic sink after the batch — the hot
	// loops never touch an atomic.
	c := s.counters()
	if pb.onMatch == nil {
		set := g.eng.Set()
		switch {
		case s.ev != nil:
			// Rule tier: collect hits for post-scan evaluation instead of
			// emitting them (ScanBatch match order within one buffer is
			// not ordered by match end, the evaluator's input contract).
			pb.onMatch = func(buf int, m vpatch.Match) {
				ent := &pb.meta[buf]
				end := int(m.Pos) + set.Pattern(m.PatternID).Len()
				if end <= ent.carryLen {
					return
				}
				s.ruleHits = append(s.ruleHits, ruleHit{
					buf: int32(buf), lit: g.origID[m.PatternID], pos: m.Pos, end: int32(end),
				})
			}
		default:
			pb.onMatch = func(buf int, m vpatch.Match) {
				ent := &pb.meta[buf]
				// Matches ending inside the carry prefix were reported by
				// the batch that scanned those stream bytes first.
				if int(m.Pos)+set.Pattern(m.PatternID).Len() <= ent.carryLen {
					return
				}
				s.emit(Alert{
					Flow:         ent.fs.key,
					StreamOffset: ent.base + int64(m.Pos),
					PatternID:    g.origID[m.PatternID],
					RuleID:       -1,
				})
			}
		}
	}
	s.session(g).ScanBatch(pb.bufs, c, pb.onMatch)
	if s.ev != nil {
		// Rule evaluation is the shard's third round after the matcher's
		// filtering and verification: timed into OtherNs, so the three
		// clocks account for the flush's scan time.
		var sw metrics.Stopwatch
		if c != nil {
			sw = metrics.Start()
		}
		s.evalRuleHits(pb, c)
		if c != nil {
			c.OtherNs += sw.Stop()
		}
	}
	pb.free = append(pb.free, pb.bufs...)
	pb.bufs = pb.bufs[:0]
	pb.meta = pb.meta[:0]
	pb.bytes = 0
	if s.obsScan != nil {
		s.publishCounters()
		s.publishFlowStats()
	}
}

// flushAged flushes every group whose oldest pending job was enqueued
// at least age before now, counting each as a deadline flush, and
// returns when the oldest job of the groups still pending comes due
// (the zero Time when none is pending).
func (s *Shard) flushAged(now time.Time, age time.Duration) time.Time {
	var next time.Time
	for g, pb := range s.pending {
		if len(pb.bufs) == 0 {
			continue
		}
		due := pb.since.Add(age)
		if now.Before(due) {
			if next.IsZero() || due.Before(next) {
				next = due
			}
			continue
		}
		if c := s.counters(); c != nil {
			c.DeadlineFlushes++
		}
		s.flushGroup(g, pb)
	}
	return next
}

// Flush scans every pending batch immediately. Call it after the last
// segment of a capture; a bare shard's alerts otherwise wait for a
// watermark.
func (s *Shard) Flush() {
	for g, pb := range s.pending {
		s.flushGroup(g, pb)
	}
	// Fold any scratch counts accumulated outside batch flushes (panic
	// recoveries, budget exhaustions on job-less teardown paths), and
	// publish final lifecycle gauges even when no batch held jobs, so
	// eviction- or teardown-only activity reaches scrapers too.
	s.publishCounters()
	s.publishFlowStats()
}

// Flows returns the number of flows holding scan state in this shard.
// Torn-down and evicted flows are released, so on FIN-terminating
// traffic this tracks live connections; Stats().Flows additionally
// counts closed flows awaiting tombstone expiry in the reassembler.
func (s *Shard) Flows() int { return len(s.flows) }

package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/arena"
	"vpatch/internal/metrics"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/resil"
	"vpatch/internal/serve"
)

// The traced run. End-to-end numbers are always taken with it off; this
// run exists to say where the end-to-end CPU figure goes. It climbs a
// layer ladder over one corpus set: each rung adds one layer through
// public entry points only and is measured as process-CPU delta (which
// adds up across goroutines). A layer's cost is the difference between
// two rungs of the same round, median over ladderRounds rounds: the
// rungs of a round run back to back, so a slow drift of the host's
// speed moves them together and cancels in the difference.
//
//	R0  generator -> io.Discard
//	W   in-memory frame stream -> serve.ReadSegmentArena -> release
//	R1  netsim.Reassembler.Add with a no-op sink
//	R2a one ids.Shard of a literal-only engine over the DB's prefilter
//	    literals, configured and observed as the dispatcher does it
//	R2b the same over the rule engine
//	R3  W's reader -> Dispatcher(2).HandleBatch -> Close
//	R4  W's reader -> resil.Scheduler.Enqueue -> that dispatcher
//	R6  the real serve.Server over loopback, sat mode, with the 1 ms
//	    scheduler-queue sampler running
//
// (The issue's R5, frame stream -> ReadSegmentArena -> R4, is R4 here:
// R3 and R4 are already fed by the frame reader, so that their
// segments own arena chunks exactly as the daemon's do.)
const (
	ladderRounds    = 5
	calibrateRounds = 3
)

// span is one traced interval, in ns since the harness epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPUNs  int64  `json:"cpu_ns,omitempty"` // process CPU spent inside, where measured
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int, cpuNs int64) {
	t.spans[id-1].End = int64(time.Since(t.epoch))
	t.spans[id-1].CPUNs = cpuNs
}

func (t *tracer) add(parent int, name string, start, end int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	return len(t.spans)
}

// rung measures the process CPU of one run of body; prepare builds
// fresh state outside the measurement and returns the body.
func (t *tracer) rung(parent int, name string, prepare func() (body func() error)) (float64, error) {
	body := prepare()
	runtime.GC() // start from a collected heap, not the previous rung's garbage
	id := t.begin(parent, name)
	c0 := cpuNanos()
	if err := body(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	cpu := cpuNanos() - c0
	t.end(id, cpu)
	return float64(cpu), nil
}

// frameStream renders one set as the byte stream the daemon would read
// for it.
func frameStream(c *corpus, base uint32) []byte {
	var out []byte
	for _, seg := range c.oneSet(base) {
		out = serve.AppendSegment(out, seg)
	}
	return out
}

// readBatches feeds stream through serve.ReadSegmentArena into
// ingest-sized batches, as serveIngestConn does. fresh gives each batch
// its own slice (the scheduler owns an enqueued batch).
func readBatches(stream []byte, fresh bool, emit func([]netsim.Segment)) error {
	r := bytes.NewReader(stream)
	batch := make([]netsim.Segment, 0, ingestBatch)
	for {
		seg, err := serve.ReadSegmentArena(r, arena.Shared())
		if err == io.EOF {
			if len(batch) > 0 {
				emit(batch)
			}
			return nil
		}
		if err != nil {
			return err
		}
		batch = append(batch, seg)
		if len(batch) == cap(batch) {
			emit(batch)
			if fresh {
				batch = make([]netsim.Segment, 0, ingestBatch)
			} else {
				batch = batch[:0]
			}
		}
	}
}

// observedShard returns a worker shard set up the way
// Engine.NewDispatcher plus Dispatcher.Observe set one up, so it runs
// whichever scan rendition the daemon runs.
func observedShard(eng *ids.Engine) (*ids.Shard, *metrics.Atomic) {
	sh := eng.NewShard(func(ids.Alert) {})
	sh.SetLimits(pipelineLimits())
	sh.SetArena(arena.Shared())
	sh.SetVerifierBudget(verifierBudget())
	scan := &metrics.Atomic{}
	sh.SetObserver(scan, &netsim.AtomicStats{})
	return sh, scan
}

// rungs is one round's costs for one set, in CPU ns; filter and verify
// are R2a's Counters.FilteringNs and VerifyNs.
type rungs struct {
	gen, wire, reasm, lit, rule, disp, sched float64
	filter, verify                           float64
}

// layers turns a round's rung costs into layer costs.
func (r rungs) layers() map[string]float64 {
	return map[string]float64{
		"gen":          r.gen,
		"serve.wire":   r.wire,
		"netsim.reasm": r.reasm,
		"core.filter":  r.filter,
		"core.verify":  r.verify,
		"ids.shard":    r.lit - r.reasm - r.filter - r.verify,
		"rules.eval":   r.rule - r.lit,
		"ids.dispatch": r.disp - r.wire - r.rule,
		"resil.sched":  r.sched - r.disp,
		"R4":           r.sched,
	}
}

// ladder holds what every round climbs over, every round's rungs, and
// the counters of the last round.
type ladder struct {
	w      *workload
	c      *corpus
	rules  *ids.Engine      // the workload's compiled DB
	lit    *ids.Engine      // a literal-only engine over its prefilter literals
	set    []netsim.Segment // one corpus set, payloads unowned
	stream []byte           // the same set as wire frames

	rounds            []rungs
	litScan, ruleScan vpatch.Counters
	reasmStats        netsim.Stats
	pendingPeak       int
	segs              uint64
	bytes             uint64
}

// layer is the median over the rounds of one layer's cost, in CPU ns
// per set.
func (l *ladder) layer(name string) float64 {
	var xs []float64
	for _, r := range l.rounds {
		xs = append(xs, r.layers()[name])
	}
	return median(xs)
}

func (t *tracer) climb(parent int, w *workload, db *compiled, c *corpus) (*ladder, error) {
	l := &ladder{w: w, c: c, rules: db.eng, lit: db.eng, set: c.oneSet(0), stream: frameStream(c, 0), bytes: c.streamBytes}
	l.segs = uint64(len(l.set))
	if rset := db.eng.Rules(); rset != nil {
		var err error
		if l.lit, err = ids.NewEngine(rset.Lits, vpatch.Options{}, func(ids.Alert) {}); err != nil {
			return nil, err
		}
	}
	for round := 1; round <= ladderRounds; round++ {
		id := t.begin(parent, fmt.Sprintf("ladder.round%d", round))
		r, err := t.climbOnce(id, l)
		if err != nil {
			return nil, err
		}
		t.end(id, 0)
		l.rounds = append(l.rounds, r)
	}
	return l, nil
}

// climbOnce runs every rung once, back to back.
func (t *tracer) climbOnce(parent int, l *ladder) (r rungs, err error) {
	c, set, stream := l.c, l.set, l.stream
	if r.gen, err = t.rung(parent, "R0.gen", func() func() error {
		s := &sender{c: c, out: io.Discard, epoch: t.epoch, group: satGroup}
		return func() error { return s.run(func(sets int) bool { return sets < 1 }) }
	}); err != nil {
		return r, err
	}

	if r.wire, err = t.rung(parent, "W.serve.wire", func() func() error {
		return func() error {
			return readBatches(stream, false, func(b []netsim.Segment) {
				for i := range b {
					b[i].ReleasePayload()
				}
			})
		}
	}); err != nil {
		return r, err
	}

	if r.reasm, err = t.rung(parent, "R1.netsim.reasm", func() func() error {
		ra := netsim.NewReassembler(func(netsim.FlowKey, []byte) {})
		ra.SetLimits(pipelineLimits())
		ra.SetArena(arena.Shared().NewLocal())
		return func() error {
			l.pendingPeak = 0
			for _, seg := range set {
				ra.Add(seg)
				l.pendingPeak = max(l.pendingPeak, ra.PendingBytes())
			}
			l.reasmStats = ra.Stats()
			return nil
		}
	}); err != nil {
		return r, err
	}

	shardRung := func(name string, eng *ids.Engine, into *vpatch.Counters) (float64, error) {
		return t.rung(parent, name, func() func() error {
			sh, scan := observedShard(eng)
			return func() error {
				for _, seg := range set {
					sh.HandleSegment(seg)
				}
				sh.Flush()
				*into = scan.Snapshot()
				return nil
			}
		})
	}
	if r.lit, err = shardRung("R2a.shard.literal", l.lit, &l.litScan); err != nil {
		return r, err
	}
	r.filter, r.verify = float64(l.litScan.FilteringNs), float64(l.litScan.VerifyNs)
	r.rule, l.ruleScan = r.lit, l.litScan
	if l.w.ruleMode {
		if r.rule, err = shardRung("R2b.shard.rules", l.rules, &l.ruleScan); err != nil {
			return r, err
		}
	}

	dispatcher := func() *ids.Dispatcher {
		d := l.rules.NewDispatcher(shards, pipelineLimits(), func(ids.Alert) {})
		d.SetVerifierBudget(verifierBudget())
		d.Observe()
		return d
	}
	if r.disp, err = t.rung(parent, "R3.ids.dispatch", func() func() error {
		d := dispatcher()
		return func() error {
			err := readBatches(stream, false, d.HandleBatch)
			d.Close()
			return err
		}
	}); err != nil {
		return r, err
	}

	r.sched, err = t.rung(parent, "R4.resil.sched", func() func() error {
		d := dispatcher()
		sch := resil.NewScheduler(resil.SchedulerConfig{
			Dispatch: func(_ string, segs []netsim.Segment) { d.HandleBatch(segs) },
		})
		sch.Start()
		win := window{limit: satWindow}
		return func() error {
			err := readBatches(stream, true, func(b []netsim.Segment) {
				var n uint64
				for i := range b {
					n += uint64(len(b[i].Payload))
				}
				for {
					st := sch.TenantStats(tenantName)
					if win.admit(n, st.DispatchedBytes+st.DroppedBytes) {
						break
					}
					time.Sleep(200 * time.Microsecond)
				}
				sch.Enqueue(tenantName, b)
			})
			sch.Close()
			d.Close()
			if st := sch.TenantStats(tenantName); err == nil && st.DroppedBytes > 0 {
				err = fmt.Errorf("scheduler shed %d bytes inside the window", st.DroppedBytes)
			}
			return err
		}
	})
	return r, err
}

// fanOutCost calibrates serve.alerts.cpu_ns_per_alert from outside,
// through the real Tenant.onAlert -> alertHub.publish -> OnAlert path:
// a tenant whose DB holds the single 1-byte pattern "A" is fed segments
// with an "A" in every 16th byte and then all-"B" segments of equal
// size, and so is a bare dispatcher whose alert sink does nothing; the
// daemon's A-B difference minus the bare dispatcher's (matching and
// emitting cost the same in both) is fan-out alone. One alert per 16
// bytes is alert_storm's density: fan-out runs under the tenant's and
// the hub's locks, so its cost per alert depends on how closely alerts
// from the two shards follow each other, and all-"A" segments
// overstate it by a third.
func (t *tracer) fanOutCost(parent, flows int) (float64, error) {
	const every = 16
	cw := &workload{name: "calibrate", segBytes: 1460, flowBytes: 32 << 10, flows: flows, concurrent: flows}
	fill := func(unit string) *corpus {
		streams := make([][]byte, cw.flows)
		for i := range streams {
			streams[i] = bytes.Repeat([]byte(unit), cw.flowBytes/every)
		}
		return assemble(cw, streams, 1)
	}
	eng, err := ids.NewEngine(patterns.FromStrings("A"), vpatch.Options{}, func(ids.Alert) {})
	if err != nil {
		return 0, err
	}
	var blob bytes.Buffer
	if _, err := eng.WriteDB(&blob); err != nil {
		return 0, err
	}
	h, err := startServer(&compiled{eng: eng, blob: blob.Bytes(), canary: alertIDs{-2, -2}})
	if err != nil {
		return 0, err
	}
	defer h.stop()
	type load struct {
		c      *corpus
		stream []byte
		tag    byte
	}
	var loads [2]load // with alerts, without
	for i, unit := range []string{"BBBBBBBBBBBBBBBA", "BBBBBBBBBBBBBBBB"} {
		c := fill(unit)
		loads[i] = load{c, frameStream(c, 0), unit[every-1]}
	}
	alerts := float64(cw.flows * cw.flowBytes / every) // one per "A"
	var perAlert []float64
	for round := 1; round <= calibrateRounds; round++ {
		id := t.begin(parent, fmt.Sprintf("calibrate.round%d", round))
		var cost [2][2]float64 // [daemon, bare][A, B]
		for i, ld := range loads {
			ld := ld
			if cost[0][i], err = t.rung(id, fmt.Sprintf("calibrate.serve.%c", ld.tag), func() func() error {
				return func() error {
					_, err := h.runPhase(phaseSpec{name: "calibrate", c: ld.c, sets: 1, sat: true})
					return err
				}
			}); err != nil {
				return 0, err
			}
			if cost[1][i], err = t.rung(id, fmt.Sprintf("calibrate.bare.%c", ld.tag), func() func() error {
				d := eng.NewDispatcher(shards, pipelineLimits(), func(ids.Alert) {})
				d.Observe()
				return func() error {
					err := readBatches(ld.stream, false, d.HandleBatch)
					d.Close()
					return err
				}
			}); err != nil {
				return 0, err
			}
		}
		t.end(id, 0)
		perAlert = append(perAlert, ((cost[0][0]-cost[0][1])-(cost[1][0]-cost[1][1]))/alerts)
	}
	if _, err := h.stop(); err != nil {
		return 0, err
	}
	return max(median(perAlert), 0), nil
}

// tracedPhase runs a phase while sampling the tenant's scheduler
// backlog every millisecond.
func (h *harness) tracedPhase(sp phaseSpec) (*phaseResult, []float64, error) {
	var samples []float64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				samples = append(samples, float64(h.srv.SchedStats(tenantName).QueuedBytes))
			}
		}
	}()
	p, err := h.runPhase(sp)
	close(stop)
	<-done
	return p, samples, err
}

// layerCost is one row of the layer table.
type layerCost struct {
	Layer         string  `json:"layer"`
	CPUNsPerByte  float64 `json:"cpu_ns_per_byte"`
	ShareOfLayers float64 `json:"share_of_layers"`
}

// traceDetail is what the traced run's result file holds beyond the
// metrics: the layer table, the mid phase's 1 ms samples of the
// scheduler queue, and every span.
type traceDetail struct {
	Layers     []layerCost `json:"layers"`
	QueueBytes []float64   `json:"sched_queue_bytes_1ms_mid"`
	Spans      []span      `json:"spans"`
}

// runTraced produces the per-layer metrics and the trace.
func runTraced(w workload, seed int64, seconds float64) (*result, *traceDetail, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	each := time.Duration(seconds / 5 * float64(time.Second)) // per server phase; the ladder takes the rest
	in := generate(w, seed, 0)
	res.set("gen.corpus_s", in.corpusS, "s", 0)

	h, db, _, err := setUp(&w, in.text)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer h.stop()
	tr := &tracer{epoch: h.epoch}
	root := tr.add(0, "workload:"+w.name, 0, 0)
	res.set("ids.compile_s", db.compileS, "s", 0)
	res.set("ids.writedb_s", db.writeDBS, "s", 0)
	res.set("serve.reload_s", h.reloadS, "s", 0)
	ref, err := reference(db.blob, in.main)
	if err != nil {
		return nil, nil, err
	}

	l, err := tr.climb(root, &w, db, in.main)
	if err != nil {
		return nil, nil, err
	}
	// 128 flows of 32 KiB give the calibration a quarter of a million
	// alerts; scaled-down test workloads calibrate on less.
	perAlert, err := tr.fanOutCost(root, max(min(w.flows, 256)/2, 2))
	if err != nil {
		return nil, nil, err
	}

	// The real server: untraced sat for the denominator, traced sat for
	// R6, traced mid for the canary spans and the queue profile.
	id := tr.begin(root, "phase:sat.untraced")
	plain, err := h.runPhase(phaseSpec{name: "sat", c: in.main, ref: &ref, dur: each, sat: true})
	if err != nil {
		return nil, nil, err
	}
	tr.end(id, plain.cpuNs)
	res.absorb(plain)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	id = tr.begin(root, "R6.serve.sat.traced")
	sat, _, err := h.tracedPhase(phaseSpec{name: "sat", c: in.main, ref: &ref, dur: each, sat: true})
	if err != nil {
		return nil, nil, err
	}
	tr.end(id, sat.cpuNs)
	runtime.ReadMemStats(&ms1)
	res.absorb(sat)
	res.imbalance = sat.imbalance

	id = tr.begin(root, "phase:mid.traced")
	mid, queue, err := h.tracedPhase(phaseSpec{name: "mid", c: in.main, ref: &ref, dur: each, pace: paceMbps(w.midMbps)})
	if err != nil {
		return nil, nil, err
	}
	tr.end(id, mid.cpuNs)
	res.absorb(mid)
	for _, cs := range mid.canaries {
		c := tr.add(id, "canary", cs.due, cs.got)
		tr.add(c, "gen.late", cs.due, max(cs.sent, cs.due))
		tr.add(c, "pipeline", max(cs.sent, cs.due), cs.got)
	}
	clean, err := h.stop()
	if err != nil {
		return nil, nil, err
	}
	if !clean {
		res.fail("drain was not clean")
	}
	tr.spans[root-1].End = int64(time.Since(tr.epoch))

	// Layer table, in CPU ns per unique payload byte. Ladder layers are
	// per set; the server's figures are per byte it scanned.
	perByte := func(layer string) float64 { return l.layer(layer) / float64(l.bytes) }
	segsPerByte := float64(l.segs) / float64(l.bytes)
	alertsPerByte := float64(ref.n+ref.canaries) / float64(in.main.streamBytes)
	r6, e2e := median(sat.setCPUPerByte), median(plain.setCPUPerByte)
	alerts := alertsPerByte * perAlert
	layers := []layerCost{
		{Layer: "serve.ingest", CPUNsPerByte: r6 - perByte("R4") - perByte("gen") - alerts},
		{Layer: "serve.alerts", CPUNsPerByte: alerts},
	}
	for _, name := range []string{"gen", "serve.wire", "resil.sched", "ids.dispatch", "netsim.reasm",
		"ids.shard", "core.filter", "core.verify", "rules.eval"} {
		layers = append(layers, layerCost{Layer: name, CPUNsPerByte: perByte(name)})
	}
	cost := map[string]float64{}
	var sum float64
	for i := range layers {
		// A rung difference inside the noise can come out negative; a
		// layer cannot cost less than nothing.
		layers[i].CPUNsPerByte = max(layers[i].CPUNsPerByte, 0)
		sum += layers[i].CPUNsPerByte
		cost[layers[i].Layer] = layers[i].CPUNsPerByte
	}
	for i := range layers {
		layers[i].ShareOfLayers = layers[i].CPUNsPerByte / sum
	}

	perSeg := func(layer string) float64 { return cost[layer] / segsPerByte }
	kb := float64(l.bytes) / 1024
	res.set("gen.cpu_ns_per_seg", perSeg("gen"), "ns/seg", ladderRounds)
	res.set("serve.ingest.cpu_ns_per_seg", perSeg("serve.ingest"), "ns/seg", sat.sets)
	res.set("serve.wire.cpu_ns_per_seg", perSeg("serve.wire"), "ns/seg", ladderRounds)
	res.set("serve.allocs_per_seg", float64(ms1.Mallocs-ms0.Mallocs)/float64(sat.segs), "1/seg", sat.sets)
	res.set("resil.sched.cpu_ns_per_seg", perSeg("resil.sched"), "ns/seg", ladderRounds)
	q := append([]float64(nil), queue...) // percentile sorts; the trace keeps time order
	res.set("resil.sched.queued_bytes_p50", percentile(q, 50), "B", len(q))
	res.set("resil.sched.queued_bytes_p99", percentile(q, 99), "B", len(q))
	res.set("resil.sched.queued_bytes_max", percentile(q, 100), "B", len(q))
	res.set("resil.sched.dropped_bytes", float64(plain.sched.DroppedBytes+sat.sched.DroppedBytes+mid.sched.DroppedBytes), "B", 0)
	res.set("resil.sched.dropped_batches", float64(plain.sched.DroppedBatches+sat.sched.DroppedBatches+mid.sched.DroppedBatches), "count", 0)
	res.set("ids.dispatch.cpu_ns_per_seg", perSeg("ids.dispatch"), "ns/seg", ladderRounds)
	res.set("ids.dispatch.shard_imbalance", sat.imbalance, "ratio", sat.sets)
	res.set("netsim.reasm.cpu_ns_per_byte", cost["netsim.reasm"], "ns/B", ladderRounds)
	res.set("netsim.reasm.cpu_ns_per_seg", perSeg("netsim.reasm"), "ns/seg", ladderRounds)
	res.set("netsim.reasm.pending_bytes_peak", float64(l.pendingPeak), "B", 0)
	res.set("netsim.reasm.dropped_bytes", float64(l.reasmStats.BytesDropped), "B", 0)
	res.set("netsim.reasm.gap_skips", float64(l.reasmStats.GapSkips), "count", 0)
	res.set("core.filter.cpu_ns_per_byte", cost["core.filter"], "ns/B", ladderRounds)
	res.set("core.filter.lane_frac", l.litScan.BatchLaneFrac(laneWidth), "frac", 0)
	res.set("core.filter.skip_frac", l.litScan.SkipFrac(), "frac", 0)
	res.set("core.filter.candidate_frac", l.litScan.CandidateFrac(), "frac", 0)
	res.set("core.verify.cpu_ns_per_byte", cost["core.verify"], "ns/B", ladderRounds)
	res.set("core.verify.attempts_per_kb", float64(l.litScan.VerifyAttempts)/kb, "1/KB", 0)
	res.set("rules.eval.cpu_ns_per_byte", cost["rules.eval"], "ns/B", ladderRounds)
	res.set("rules.eval.verifier_runs_per_mb", float64(l.ruleScan.VerifierRuns)/kb*1024, "1/MB", 0)
	res.set("rules.eval.verifier_states_per_mb", float64(l.ruleScan.VerifierStates)/kb*1024, "1/MB", 0)
	res.set("rules.eval.degraded_flows", float64(l.ruleScan.DegradedFlows), "count", 0)
	res.set("ids.shard.cpu_ns_per_seg", perSeg("ids.shard"), "ns/seg", ladderRounds)
	res.set("serve.alerts.cpu_ns_per_alert", perAlert, "ns/alert", calibrateRounds)
	res.set("serve.alerts.alerts_per_kb", alertsPerByte*1024, "1/KB", 0)
	ast := arena.Shared().Stats()
	res.set("arena.chunks_peak", float64(ast.Peak), "count", 0)
	res.set("arena.overflow_allocs", float64(ast.Overflows), "count", 0)
	res.set("arena.pooled_mb", float64(ast.PooledBytes)/(1<<20), "MB", 0)
	res.set("gen.late_p99_ms", percentile(mid.lateMs, 99), "ms", len(mid.lateMs))
	res.set("serve.alert_latency_p99_ms", percentile(mid.latMs, 99), "ms", len(mid.latMs))
	res.set("serve.alert_latency_max_ms", percentile(mid.latMs, 100), "ms", len(mid.latMs))
	res.set("trace.layers_cpu_ns_per_byte", sum, "ns/B", 0)
	res.set("trace.e2e_cpu_ns_per_byte", e2e, "ns/B", len(plain.setCPUPerByte))
	res.set("trace.coverage_frac", sum/e2e, "frac", 0)
	res.set("trace.overhead_frac", 1-median(sat.setGbps)/median(plain.setGbps), "frac", 0)
	if cov := sum / e2e; cov < 0.9 || cov > 1.1 {
		fmt.Printf("# trace.coverage_frac %.3f is outside [0.9, 1.1]: the layer table does not account for the end-to-end CPU figure on this run\n", cov)
	}

	fmt.Printf("# layer table, %s (CPU ns per unique payload byte)\n", w.name)
	sort.SliceStable(layers, func(a, b int) bool { return layers[a].CPUNsPerByte > layers[b].CPUNsPerByte })
	for _, lc := range layers {
		fmt.Printf("#   %-14s %9.3f  %5.1f %%\n", lc.Layer, lc.CPUNsPerByte, 100*lc.ShareOfLayers)
	}
	fmt.Printf("#   %-14s %9.3f  of %.3f end to end, tracing off\n", "sum", sum, e2e)

	return res, &traceDetail{layers, queue, tr.spans}, nil
}

package ids

// Flow-lifecycle tests: teardown and eviction semantics of the shard,
// the multi-shard dispatcher, the shared port-classification table, and
// the end-to-end property test feeding adversarial traffic (reorder,
// duplicates, overlapping retransmits, teardown) through a multi-shard
// pipeline and asserting alert-identity with direct per-stream scans.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vpatch"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
)

// TestPortTableSharedWithRuleParser: flow routing and rule bucketing
// must classify every service port identically — both go through
// patterns.ServicePorts, and a rule written for any table port must
// alert on a flow to that port. 443 and 8000 are the historical drift
// (counted as HTTP by the flow side only).
func TestPortTableSharedWithRuleParser(t *testing.T) {
	for port, want := range patterns.ServicePorts {
		if got := protoForPort(port); got != want {
			t.Fatalf("port %d: flow side %v, table %v", port, got, want)
		}
	}
	if protoForPort(9999) != vpatch.ProtoGeneric {
		t.Fatal("unlisted port must classify generic")
	}

	// End to end for every table port: parse a rule targeting the port,
	// build the pipeline, and send the payload to a flow on that port.
	for port, proto := range patterns.ServicePorts {
		pat := fmt.Sprintf("attack-on-%d", port)
		rule := fmt.Sprintf("alert tcp any any -> any %d (msg:\"t\"; content:\"%s\"; sid:1;)", port, pat)
		set, err := patterns.ParseRules(strings.NewReader(rule), patterns.ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Patterns()[0].Proto; got != proto {
			t.Fatalf("port %d: rule parsed into %v group, flows route to %v", port, got, proto)
		}
		var alerts []Alert
		e, err := NewEngine((*vpatch.PatternSet)(set), vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
		if err != nil {
			t.Fatal(err)
		}
		e.HandleSegment(netsim.Segment{Flow: key(1, port), Seq: 0, Payload: []byte("xx " + pat + " yy")})
		e.Flush()
		if len(alerts) != 1 {
			t.Fatalf("port %d: rule compiled into a group its flows never scan (%d alerts)", port, len(alerts))
		}
	}
}

// TestTeardownReleasesFlowState: a FIN-completed flow releases its scan
// state; its alerts still surface, and late retransmits do not
// re-alert.
func TestTeardownReleasesFlowState(t *testing.T) {
	set := mixedRuleSet()
	var alerts []Alert
	e, err := NewEngine(set, vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("xx http-attack-xyz yy")
	e.HandleSegment(netsim.Segment{Flow: key(1, 80), Seq: 0, Payload: payload, Flags: netsim.FlagFIN})
	if got := e.def.Flows(); got != 0 {
		t.Fatalf("scan state for %d flows retained after teardown", got)
	}
	e.Flush()
	if len(alerts) != 1 || alerts[0].StreamOffset != 3 {
		t.Fatalf("alerts after teardown: %+v", alerts)
	}
	// Late retransmit: tombstoned, no duplicate alert.
	e.HandleSegment(netsim.Segment{Flow: key(1, 80), Seq: 0, Payload: payload})
	e.Flush()
	if len(alerts) != 1 {
		t.Fatalf("late retransmit re-alerted: %d alerts", len(alerts))
	}
	st := e.Stats()
	if st.FlowsClosed != 1 || st.BytesDropped != uint64(len(payload)) {
		t.Fatalf("stats %+v", st)
	}
}

// TestEvictionFlushesEnqueuedJobs: evicting a flow must flush its
// group's pending scan jobs first, so alerts already enqueued for the
// evicted flow are delivered, and the carry is released.
func TestEvictionFlushesEnqueuedJobs(t *testing.T) {
	set := mixedRuleSet()
	var alerts []Alert
	e, err := NewEngine(set, vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	e.def.maxBatchBufs, e.def.maxBatchBytes = 1<<20, 1<<30 // watermarks never trigger on their own
	e.SetLimits(netsim.Limits{MaxFlows: 1})

	e.HandleSegment(netsim.Segment{Flow: key(1, 80), Seq: 0,
		Payload: []byte("xx http-attack-xyz yy"), TsMicros: 1})
	if len(alerts) != 0 {
		t.Fatal("job flushed before any watermark or eviction")
	}
	// A second flow exceeds the cap: flow 1 is evicted, and its
	// enqueued job must be scanned on the way out.
	e.HandleSegment(netsim.Segment{Flow: key(2, 80), Seq: 0,
		Payload: []byte("quiet"), TsMicros: 2})
	if len(alerts) != 1 || alerts[0].Flow != key(1, 80) {
		t.Fatalf("eviction lost enqueued alerts: %+v", alerts)
	}
	st := e.Stats()
	if st.FlowsEvicted != 1 || st.Flows != 1 || st.PeakFlows != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// propRuleSet builds a rule set over a tiny alphabet (so matches occur
// naturally and overlap) spread across protocol groups, with a nocase
// pattern in the mix.
func propRuleSet() *vpatch.PatternSet {
	set := vpatch.NewPatternSet()
	set.Add([]byte("abca"), false, vpatch.ProtoGeneric)
	set.Add([]byte("bcab"), false, vpatch.ProtoHTTP)
	set.Add([]byte("cabc"), false, vpatch.ProtoDNS)
	set.Add([]byte("dd"), false, vpatch.ProtoGeneric)
	set.Add([]byte("http-evil-sig"), false, vpatch.ProtoHTTP)
	set.Add([]byte("CaseMix"), true, vpatch.ProtoHTTP)
	set.Add([]byte("ftp-evil-sig"), false, vpatch.ProtoFTP)
	return set
}

// TestPipelineReorderOverlapTeardownProperty: random streams are
// packetized with reordering, duplication, overlapping retransmits and
// FIN teardown, fed through a 3-shard dispatcher, and the resulting
// alerts must equal — as multisets — a direct FindAll of each stream
// against its flow's rule group, for all five algorithms. Run with
// -race this is also the dispatcher's concurrency test.
func TestPipelineReorderOverlapTeardownProperty(t *testing.T) {
	algos := []vpatch.Algorithm{
		vpatch.AlgoVPatch, vpatch.AlgoSPatch, vpatch.AlgoDFC, vpatch.AlgoVectorDFC,
		vpatch.AlgoAhoCorasick,
	}
	set := propRuleSet()
	ports := []uint16{80, 443, 8000, 53, 21, 25, 9999}
	for _, alg := range algos {
		for trial := 0; trial < 3; trial++ {
			seed := int64(1000*int(alg) + trial)
			rng := rand.New(rand.NewSource(seed))

			flows := make(map[netsim.FlowKey][]byte)
			for i := 0; i < 5+rng.Intn(4); i++ {
				data := make([]byte, 512+rng.Intn(8192))
				for j := range data {
					data[j] = byte('a' + rng.Intn(4))
				}
				// Inject patterns of every group — cross-group hits
				// must NOT alert, same-group hits must.
				for _, inj := range []string{"http-evil-sig", "ftp-evil-sig", "casemix", "CASEMIX"} {
					if pos := rng.Intn(len(data)); pos+len(inj) <= len(data) {
						copy(data[pos:], inj)
					}
				}
				flows[key(i, ports[rng.Intn(len(ports))])] = data
			}
			segs := netsim.Packetize(flows, netsim.PacketizeOptions{
				MTU:           96 + rng.Intn(512),
				Jitter:        rng.Intn(12),
				DuplicateFrac: 0.1,
				OverlapFrac:   0.25,
				FIN:           true,
				Seed:          seed,
			})

			e, err := NewEngine(set, vpatch.Options{Algorithm: alg}, func(Alert) {})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var got []Alert
			d := e.NewDispatcher(3, netsim.Limits{}, func(a Alert) {
				mu.Lock()
				got = append(got, a)
				mu.Unlock()
			})
			for i := range segs {
				d.HandleBatch(segs[i : i+1])
			}
			stats := d.Close()

			var want []Alert
			for k, data := range flows {
				g := e.groupFor(k)
				for _, m := range g.eng.FindAll(data) {
					want = append(want, Alert{Flow: k, StreamOffset: int64(m.Pos), PatternID: g.origID[m.PatternID], RuleID: -1})
				}
			}
			sortAlerts(got)
			sortAlerts(want)
			if len(got) != len(want) {
				t.Fatalf("%v seed %d: pipeline %d alerts, direct scan %d", alg, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v seed %d: alert %d: pipeline %+v, direct %+v", alg, seed, i, got[i], want[i])
				}
			}
			if stats.PendingBytes != 0 {
				t.Fatalf("%v seed %d: %d out-of-order bytes leaked", alg, seed, stats.PendingBytes)
			}
			if stats.FlowsClosed != uint64(len(flows)) {
				t.Fatalf("%v seed %d: %d of %d flows tore down", alg, seed, stats.FlowsClosed, len(flows))
			}
			if stats.FlowsEvicted != 0 {
				t.Fatalf("%v seed %d: evictions with unlimited limits: %+v", alg, seed, stats)
			}
		}
	}
}

// TestDispatcherPartitionsAndMerges: the dispatcher must deliver
// exactly the single-shard alert multiset, keep each flow on one shard
// and in order (also across the slabs of one oversized batch), and merge
// per-shard stats at Close.
func TestDispatcherPartitionsAndMerges(t *testing.T) {
	set := mixedRuleSet()
	flows := map[netsim.FlowKey][]byte{
		key(1, 80): []byte("xx http-attack-xyz yy generic-bad-001 zz"),
		key(2, 53): []byte("query dns-poison-abc generic-bad-001 end"),
		key(3, 21): []byte("USER x ftp-bounce-q PASS generic-bad-001"),
		key(4, 80): []byte("GET / http-attack-xyz http-attack-xyz"),
		key(5, 25): []byte("MAIL FROM generic-bad-001"),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 13, Jitter: 4, FIN: true, Seed: 6})

	want := collect(t, set, segs)
	if len(want) == 0 {
		t.Fatal("test needs alerts")
	}

	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []Alert
	d := e.NewDispatcher(4, netsim.Limits{MaxFlows: 64}, func(a Alert) {
		mu.Lock()
		got = append(got, a)
		mu.Unlock()
	})
	if len(d.workers) != 4 {
		t.Fatalf("%d shards, want 4", len(d.workers))
	}
	obs := d.Observe()
	for i := range segs {
		d.HandleBatch(segs[i : i+1])
	}
	st := d.Close()
	st2 := d.Close() // idempotent
	if st != st2 {
		t.Fatalf("Close not idempotent: %+v vs %+v", st, st2)
	}

	sortAlerts(got)
	w := append([]Alert(nil), want...)
	sortAlerts(w)
	if len(got) != len(w) {
		t.Fatalf("dispatcher %d alerts, single shard %d", len(got), len(w))
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("alert %d: dispatcher %+v, single shard %+v", i, got[i], w[i])
		}
	}
	if st.FlowsClosed != uint64(len(flows)) {
		t.Fatalf("merged stats missed teardowns: %+v", st)
	}

	// Scan instrumentation: the observer's merged counters fold with
	// the lifecycle stats into one figure set. Matches counts raw engine
	// hits (>= alerts: carry-prefix suppression happens after
	// counting).
	c := obs.Counters()
	st.MergeInto(&c)
	totalPayload := 0
	for _, data := range flows {
		totalPayload += len(data)
	}
	if c.BytesScanned < uint64(totalPayload) {
		t.Fatalf("counters scanned %d bytes, capture carries %d", c.BytesScanned, totalPayload)
	}
	if c.Matches < uint64(len(got)) {
		t.Fatalf("counters report %d matches, %d alerts emitted", c.Matches, len(got))
	}

	// One flow, one HandleBatch call, 129 in-order segments: three slabs
	// to one shard, which must arrive in order. FlowPendingBytes 1 makes
	// any reordering visible — an out-of-order segment is dropped, not
	// buffered, and the alerts straddling the slab boundaries go with it.
	const segLen = 16
	stream := bytes.Repeat([]byte{'.'}, 129*segLen)
	copy(stream[DefaultDispatchBatch*segLen-7:], "generic-bad-001")
	copy(stream[2*DefaultDispatchBatch*segLen-7:], "generic-bad-001")
	var one []netsim.Segment
	for off := 0; off < len(stream); off += segLen {
		one = append(one, netsim.Segment{Flow: key(7, 9999), Seq: uint32(off), Payload: stream[off : off+segLen]})
	}
	var ordered atomic.Int64
	d = e.NewDispatcher(2, netsim.Limits{FlowPendingBytes: 1}, func(Alert) { ordered.Add(1) })
	d.HandleBatch(one)
	if st := d.Close(); st.BytesDropped != 0 || st.GapSkips != 0 || ordered.Load() != 2 {
		t.Fatalf("129-segment batch reordered across slabs: %d alerts (want 2), stats %+v", ordered.Load(), st)
	}
}

// BenchmarkFlowChurn: 1M+ short-lived flows (out-of-order two-segment
// bodies plus FIN, reusing the caller's payload buffer) through a
// capped pipeline. Memory must stay bounded: tracked flows never exceed
// the cap, no out-of-order bytes leak, and every flow's alert is
// delivered. Allocations are reported; steady state must not leak per
// flow (the map, LRU and buffer pools recycle).
func BenchmarkFlowChurn(b *testing.B) {
	set := vpatch.NewPatternSet()
	set.Add([]byte("http-attack-xyz"), false, vpatch.ProtoHTTP)
	set.Add([]byte("generic-bad-001"), false, vpatch.ProtoGeneric)
	var alerts uint64
	e, err := NewEngine(set, vpatch.Options{}, func(Alert) { alerts++ })
	if err != nil {
		b.Fatal(err)
	}
	const flowCap = 1024
	e.SetLimits(netsim.Limits{
		MaxFlows:          flowCap,
		IdleTimeoutMicros: 1_000_000,
		FlowPendingBytes:  16 << 10,
		TotalPendingBytes: 1 << 20,
	})

	payload := []byte("GET /index.html HTTP/1.1\r\nHost: a\r\nhttp-attack-xyz\r\n\r\n")
	half := len(payload) / 2
	buf := make([]byte, len(payload)) // reused per segment, like a pcap read loop
	const flowsPerOp = 1_100_000
	bytesPerFlow := int64(len(payload))

	b.ReportAllocs()
	b.SetBytes(bytesPerFlow * flowsPerOp)
	b.ResetTimer()
	// Engine stats are cumulative across iterations: assert per-op
	// deltas so the benchmark is correct for any b.N. The capture
	// clock (ts) also runs on across iterations.
	var prevClosed uint64
	ts := uint64(1)
	for n := 0; n < b.N; n++ {
		alerts = 0
		for f := 0; f < flowsPerOp; f++ {
			k := netsim.FlowKey{SrcIP: uint32(f), DstIP: 0x7F000001,
				SrcPort: uint16(f), DstPort: 80}
			// Tail first (buffered out of order, carries FIN), then head.
			copy(buf, payload)
			e.HandleSegment(netsim.Segment{Flow: k, Seq: uint32(half),
				Payload: buf[half:], TsMicros: ts, Flags: netsim.FlagFIN})
			e.HandleSegment(netsim.Segment{Flow: k, Seq: 0,
				Payload: buf[:half], TsMicros: ts + 1})
			ts += 2
			if f&0xFFFF == 0 {
				if got := e.def.Flows(); got > flowCap {
					b.Fatalf("flow %d: %d tracked flows exceed cap %d", f, got, flowCap)
				}
			}
		}
		e.Flush()
		st := e.Stats()
		if st.Flows > flowCap || st.PeakFlows > flowCap {
			b.Fatalf("cap breached: %+v (cap %d)", st, flowCap)
		}
		if st.PendingBytes != 0 {
			b.Fatalf("out-of-order bytes leaked: %+v", st)
		}
		if st.FlowsClosed-prevClosed != flowsPerOp {
			b.Fatalf("%d of %d flows tore down this op (%+v)", st.FlowsClosed-prevClosed, flowsPerOp, st)
		}
		prevClosed = st.FlowsClosed
		if alerts != flowsPerOp {
			b.Fatalf("%d alerts for %d flows: churn lost or duplicated alerts", alerts, flowsPerOp)
		}
	}
	st := e.Stats()
	b.ReportMetric(float64(st.PeakFlows), "peak-flows")
	b.ReportMetric(flowsPerOp, "flows/op")
}

package ids

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"vpatch"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/resil"
	"vpatch/internal/traffic"
)

func key(i int, port uint16) netsim.FlowKey {
	return netsim.FlowKey{SrcIP: 0x0A000001 + uint32(i), DstIP: 0xC0A80001,
		SrcPort: uint16(40000 + i), DstPort: port}
}

func mixedRuleSet() *vpatch.PatternSet {
	set := vpatch.NewPatternSet()
	set.Add([]byte("http-attack-xyz"), false, vpatch.ProtoHTTP)
	set.Add([]byte("dns-poison-abc"), false, vpatch.ProtoDNS)
	set.Add([]byte("generic-bad-001"), false, vpatch.ProtoGeneric)
	set.Add([]byte("ftp-bounce-q"), false, vpatch.ProtoFTP)
	return set
}

func collect(t *testing.T, set *vpatch.PatternSet, segs []netsim.Segment) []Alert {
	t.Helper()
	var alerts []Alert
	e, err := NewEngine(set, vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		e.HandleSegment(s)
	}
	e.Flush()
	return alerts
}

// TestNilSinkEngineHasNoDefaultShard: NewEngine, NewRuleEngine and
// LoadDB with a nil sink build compiled state only. Dispatchers over
// such an engine deliver exactly the alerts of one over a sink-built
// engine, and every default-shard method panics with the contract's
// message instead of reaching a shard that does not exist.
func TestNilSinkEngineHasNoDefaultShard(t *testing.T) {
	rset := evasiveRules(t)
	segs := evasiveSegs(rset)
	sink := func(Alert) {}
	lit, err := NewEngine(rset.Lits, vpatch.Options{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	ruled, err := NewRuleEngine(rset, vpatch.Options{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	blob := ruled.SerializeDB()
	cases := []struct {
		name string
		ref  *Engine
		mk   func() (*Engine, error)
	}{
		{"NewEngine", lit, func() (*Engine, error) { return NewEngine(rset.Lits, vpatch.Options{}, nil) }},
		{"NewRuleEngine", ruled, func() (*Engine, error) { return NewRuleEngine(rset, vpatch.Options{}, nil) }},
		{"LoadDB", ruled, func() (*Engine, error) { return LoadDB(blob, nil) }},
	}
	dispatch := func(e *Engine) []Alert {
		var mu sync.Mutex
		var out []Alert
		d := e.NewBatchDispatcher(2, netsim.Limits{}, func(as []Alert) {
			mu.Lock()
			out = append(out, as...)
			mu.Unlock()
		})
		d.HandleBatch(segs)
		d.Close()
		sortAlerts(out)
		return out
	}
	for _, tc := range cases {
		e, err := tc.mk()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e.def != nil {
			t.Fatalf("%s: nil sink built a default shard", tc.name)
		}
		got, want := dispatch(e), dispatch(tc.ref)
		if len(want) == 0 {
			t.Fatalf("%s: test needs alerts", tc.name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: nil-sink dispatcher alerts differ:\n got  %v\n want %v", tc.name, got, want)
		}
		for method, call := range map[string]func(){
			"HandleSegment":     func() { e.HandleSegment(segs[0]) },
			"Flush":             e.Flush,
			"SetLimits":         func() { e.SetLimits(netsim.Limits{}) },
			"SetVerifierBudget": func() { e.SetVerifierBudget(resil.VerifierBudget{}) },
			"Stats":             func() { e.Stats() },
		} {
			func() {
				defer func() {
					if r := recover(); r != errNoDefaultShard {
						t.Errorf("%s: %s panicked with %v, want %q", tc.name, method, r, errNoDefaultShard)
					}
				}()
				call()
			}()
		}
	}
}

func TestGroupRouting(t *testing.T) {
	set := mixedRuleSet()
	httpStream := []byte("GET / HTTP/1.1 http-attack-xyz generic-bad-001 dns-poison-abc")
	dnsStream := []byte("query dns-poison-abc generic-bad-001 http-attack-xyz")
	flows := map[netsim.FlowKey][]byte{
		key(1, 80): httpStream,
		key(2, 53): dnsStream,
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 16, Seed: 1})
	alerts := collect(t, set, segs)

	byFlow := map[uint16][]int32{}
	for _, a := range alerts {
		byFlow[a.Flow.DstPort] = append(byFlow[a.Flow.DstPort], a.PatternID)
	}
	// HTTP flow: http pattern (0) + generic (2); the dns pattern in the
	// payload must NOT alert (wrong group).
	wantHTTP := []int32{0, 2}
	wantDNS := []int32{1, 2}
	checkIDs(t, "http flow", byFlow[80], wantHTTP)
	checkIDs(t, "dns flow", byFlow[53], wantDNS)
}

func checkIDs(t *testing.T, what string, got, want []int32) {
	t.Helper()
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		t.Fatalf("%s: alerts %v, want pattern IDs %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: alerts %v, want pattern IDs %v", what, got, want)
		}
	}
}

func TestAlertsCarryOriginalPatternIDs(t *testing.T) {
	// The FTP pattern has original ID 3 but is pattern 1 inside its
	// group subset; alerts must carry 3.
	set := mixedRuleSet()
	flows := map[netsim.FlowKey][]byte{
		key(1, 21): []byte("USER x ftp-bounce-q PASS"),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{Seed: 2})
	alerts := collect(t, set, segs)
	if len(alerts) != 1 || alerts[0].PatternID != 3 {
		t.Fatalf("alerts %+v, want single alert with original ID 3", alerts)
	}
}

func TestUnknownServiceUsesGenericGroup(t *testing.T) {
	set := mixedRuleSet()
	flows := map[netsim.FlowKey][]byte{
		key(1, 9999): []byte("generic-bad-001 and http-attack-xyz here"),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{Seed: 3})
	alerts := collect(t, set, segs)
	if len(alerts) != 1 || alerts[0].PatternID != 2 {
		t.Fatalf("generic routing wrong: %+v", alerts)
	}
}

func TestMatchesSpanningSegmentsAndReordering(t *testing.T) {
	set := vpatch.NewPatternSet()
	set.Add([]byte("SPANNING-ATTACK-PATTERN"), false, vpatch.ProtoHTTP)
	payload := make([]byte, 8<<10)
	for i := range payload {
		payload[i] = 'x'
	}
	copy(payload[4000:], "SPANNING-ATTACK-PATTERN")
	flows := map[netsim.FlowKey][]byte{key(1, 80): payload}
	// Tiny MTU + heavy jitter: the pattern spans many segments arriving
	// out of order.
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{
		MTU: 7, Jitter: 10, DuplicateFrac: 0.15, Seed: 5,
	})
	alerts := collect(t, set, segs)
	if len(alerts) != 1 {
		t.Fatalf("%d alerts, want 1", len(alerts))
	}
	if alerts[0].StreamOffset != 4000 {
		t.Fatalf("alert offset %d, want 4000", alerts[0].StreamOffset)
	}
}

// End-to-end cross-check: the pipeline must report exactly the matches a
// direct scan of each reassembled stream against its applicable subset
// reports.
func TestEndToEndAgainstDirectScan(t *testing.T) {
	full := patterns.GenerateS1(5).Subset(150, 2)
	set := vpatch.PatternSet(*full)
	flows := map[netsim.FlowKey][]byte{
		key(1, 80):   traffic.Synthesize(traffic.ISCXDay2, 16<<10, 1, full),
		key(2, 80):   traffic.Synthesize(traffic.ISCXDay6, 16<<10, 2, full),
		key(3, 9999): traffic.Synthesize(traffic.DARPA2000, 16<<10, 3, full),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{
		MTU: 1000, Jitter: 5, DuplicateFrac: 0.05, Seed: 9,
	})
	alerts := collect(t, &set, segs)

	// Reference: per flow, scan the whole stream with the flow's subset.
	want := 0
	for k, data := range flows {
		proto := vpatch.ProtoHTTP
		if k.DstPort == 9999 {
			proto = vpatch.ProtoGeneric
		}
		for i := range set.Patterns() {
			p := &set.Patterns()[i]
			if p.Proto != proto && p.Proto != vpatch.ProtoGeneric {
				continue
			}
			for pos := 0; pos < len(data); pos++ {
				if p.MatchesAt(data, pos) {
					want++
				}
			}
		}
	}
	if len(alerts) != want {
		t.Fatalf("pipeline reported %d alerts, direct scan %d", len(alerts), want)
	}
}

func TestGroupSizesAndDiagnostics(t *testing.T) {
	set := mixedRuleSet()
	var alerts []Alert
	e, err := NewEngine(set, vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	sizes := e.GroupSizes()
	// Each protocol group = its rule + the generic rule.
	if sizes[vpatch.ProtoHTTP] != 2 || sizes[vpatch.ProtoDNS] != 2 || sizes[vpatch.ProtoGeneric] != 1 {
		t.Fatalf("group sizes %v", sizes)
	}
	if e.def.Flows() != 0 || e.Stats().PendingBytes != 0 {
		t.Fatal("fresh engine has state")
	}
	e.HandleSegment(netsim.Segment{Flow: key(1, 80), Seq: 0, Payload: []byte("x")})
	if e.def.Flows() != 1 {
		t.Fatalf("Flows = %d", e.def.Flows())
	}
}

// TestShardsSharePipeline: the engine's compiled groups serve several
// worker shards concurrently — flows partitioned across shards, one
// goroutine per shard — and the union of alerts equals a single-shard
// run. Under -race this also proves shards never write shared state.
func TestShardsSharePipeline(t *testing.T) {
	set := mixedRuleSet()
	flows := map[netsim.FlowKey][]byte{
		key(1, 80): []byte("xx http-attack-xyz yy generic-bad-001 zz"),
		key(2, 53): []byte("query dns-poison-abc generic-bad-001 end"),
		key(3, 21): []byte("USER x ftp-bounce-q PASS generic-bad-001"),
		key(4, 80): []byte("GET / http-attack-xyz http-attack-xyz"),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 11, Seed: 6})

	want := len(collect(t, set, segs))
	if want == 0 {
		t.Fatal("test needs alerts")
	}

	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	const nShards = 2
	counts := make([]int, nShards)
	shards := make([]*Shard, nShards)
	for i := range shards {
		i := i
		shards[i] = e.NewShard(func(Alert) { counts[i]++ })
	}
	// Partition segments by flow (src port parity) and feed each shard
	// on its own goroutine.
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, s := range segs {
				if int(s.Flow.SrcPort)%nShards == i {
					shards[i].HandleSegment(s)
				}
			}
			shards[i].Flush()
		}(i)
	}
	wg.Wait()
	got := counts[0] + counts[1]
	if got != want {
		t.Fatalf("sharded alerts %d (=%v), single-shard %d", got, counts, want)
	}
	if shards[0].Flows()+shards[1].Flows() != len(flows) {
		t.Fatalf("flow partition lost flows: %d + %d, want %d",
			shards[0].Flows(), shards[1].Flows(), len(flows))
	}
}

// TestBatchWatermarksAndFlush: alerts surface when a group batch hits
// the buffer-count watermark (no explicit Flush needed), partial
// batches wait for Flush, and the batched pipeline reports exactly the
// alerts a scan-per-payload configuration (watermark 1) reports.
func TestBatchWatermarksAndFlush(t *testing.T) {
	set := mixedRuleSet()
	flows := map[netsim.FlowKey][]byte{
		key(1, 80): traffic.Synthesize(traffic.ISCXDay2, 8<<10, 1, nil),
		key(2, 80): traffic.Synthesize(traffic.ISCXDay6, 8<<10, 2, nil),
	}
	for k := range flows {
		flows[k] = append(flows[k], "http-attack-xyz and generic-bad-001"...)
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 256, Jitter: 3, Seed: 8})

	run := func(maxBufs, maxBytes int, explicitFlush bool) []Alert {
		var alerts []Alert
		e, err := NewEngine(set, vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
		if err != nil {
			t.Fatal(err)
		}
		e.def.maxBatchBufs, e.def.maxBatchBytes = maxBufs, maxBytes
		for _, s := range segs {
			e.HandleSegment(s)
		}
		if explicitFlush {
			e.Flush()
			for _, pb := range e.def.pending {
				if n := len(pb.bufs); n != 0 {
					t.Fatalf("%d buffers still pending after Flush", n)
				}
			}
		}
		return alerts
	}

	// Watermark 1 = scan-per-payload; nothing pends, Flush is a no-op.
	want := run(1, 1<<30, true)
	if len(want) == 0 {
		t.Fatal("test needs alerts")
	}
	got := run(16, 1<<30, true)
	sortAlerts(want)
	sortAlerts(got)
	if len(got) != len(want) {
		t.Fatalf("batched pipeline: %d alerts, scan-per-payload %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alert %d: batched %+v, scan-per-payload %+v", i, got[i], want[i])
		}
	}
	// Without Flush, the buffer-count watermark alone must still have
	// scanned most of the stream (only sub-watermark leftovers pend).
	partial := run(4, 1<<30, false)
	if len(partial) == 0 {
		t.Fatal("watermark never triggered a flush")
	}
	// Byte watermark alone must also trigger.
	byBytes := run(1<<30, 2048, false)
	if len(byBytes) == 0 {
		t.Fatal("byte watermark never triggered a flush")
	}
}

// sortAlerts orders alerts by (flow, offset, pattern) for comparison.
func sortAlerts(as []Alert) {
	sort.Slice(as, func(i, j int) bool {
		a, b := as[i], as[j]
		if a.Flow != b.Flow {
			if a.Flow.SrcIP != b.Flow.SrcIP {
				return a.Flow.SrcIP < b.Flow.SrcIP
			}
			return a.Flow.SrcPort < b.Flow.SrcPort
		}
		if a.StreamOffset != b.StreamOffset {
			return a.StreamOffset < b.StreamOffset
		}
		return a.PatternID < b.PatternID
	})
}

func TestAllAlgorithmsThroughPipeline(t *testing.T) {
	set := mixedRuleSet()
	flows := map[netsim.FlowKey][]byte{
		key(1, 80): []byte("xx http-attack-xyz yy generic-bad-001 zz"),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 9, Seed: 4})
	for _, alg := range []vpatch.Algorithm{
		vpatch.AlgoVPatch, vpatch.AlgoSPatch, vpatch.AlgoDFC,
		vpatch.AlgoAhoCorasick,
	} {
		var alerts []Alert
		e, err := NewEngine(set, vpatch.Options{Algorithm: alg}, func(a Alert) { alerts = append(alerts, a) })
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs {
			e.HandleSegment(s)
		}
		e.Flush()
		if len(alerts) != 2 {
			t.Fatalf("%v: %d alerts, want 2", alg, len(alerts))
		}
	}
}

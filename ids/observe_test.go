package ids

// Tests for the resident-service surfaces: concurrent one-shot
// ScanBuffer, the dispatcher's race-safe observer, and FlushAll.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vpatch"
	"vpatch/internal/metrics"
	"vpatch/internal/netsim"
	"vpatch/internal/rules"
	"vpatch/internal/traffic"
)

func TestScanBufferRoutesAndMapsIDs(t *testing.T) {
	set := mixedRuleSet()
	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("GET / http-attack-xyz and generic-bad-001 plus dns-poison-abc")

	type hit struct {
		id  int32
		pos int64
	}
	scan := func(port uint16) []hit {
		var hits []hit
		n := e.ScanBuffer(port, buf, nil, func(id int32, pos int64) {
			hits = append(hits, hit{id, pos})
		})
		if n != len(hits) {
			t.Fatalf("ScanBuffer returned %d, emitted %d", n, len(hits))
		}
		return hits
	}

	// Port 80: HTTP group = HTTP rules + generic rules. The DNS pattern
	// in the buffer must not match.
	got := map[int32]bool{}
	for _, h := range scan(80) {
		got[h.id] = true
		p := set.Pattern(h.id)
		if string(buf[h.pos:h.pos+int64(p.Len())]) != string(p.Data) {
			t.Fatalf("pattern %d reported at %d does not match buffer", h.id, h.pos)
		}
	}
	if !got[0] || !got[2] || got[1] {
		t.Fatalf("HTTP-port scan hit rules %v, want {0,2} without 1", got)
	}

	// Unclassified port: generic group only.
	got = map[int32]bool{}
	for _, h := range scan(12345) {
		got[h.id] = true
	}
	if len(got) != 1 || !got[2] {
		t.Fatalf("generic scan hit %v, want only generic rule 2", got)
	}
}

// TestScanBufferConcurrent: ScanBuffer must be callable from many
// goroutines against one engine (run under -race).
func TestScanBufferConcurrent(t *testing.T) {
	e, err := NewEngine(mixedRuleSet(), vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("xx http-attack-xyz yy generic-bad-001 zz")
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c vpatch.Counters
			for i := 0; i < 200; i++ {
				total.Add(int64(e.ScanBuffer(80, buf, &c, nil)))
			}
			if c.Matches != 400 {
				t.Errorf("per-goroutine counters saw %d matches, want 400", c.Matches)
			}
		}()
	}
	wg.Wait()
	if total.Load() != 8*200*2 {
		t.Fatalf("total matches %d, want %d", total.Load(), 8*200*2)
	}
}

// TestDispatcherObserver: counters and flow stats published through the
// observer must be scrapeable during ingestion (race-free) and agree
// with the final merged stats after Close.
func TestDispatcherObserver(t *testing.T) {
	set := mixedRuleSet()
	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	streams := map[netsim.FlowKey][]byte{}
	for i := 0; i < 40; i++ {
		streams[key(i, 80)] = []byte(fmt.Sprintf("flow %d has http-attack-xyz inside padding padding", i))
	}
	segs := netsim.Packetize(streams, netsim.PacketizeOptions{MTU: 24, Seed: 3, FIN: true})

	var alerts atomic.Int64
	d := e.NewDispatcher(3, netsim.Limits{}, func(Alert) { alerts.Add(1) })
	obs := d.Observe()
	if d.Observe() != obs {
		t.Fatal("Observe must be idempotent")
	}

	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		var prev uint64
		for {
			c := obs.Counters()
			if c.BytesScanned < prev {
				t.Errorf("observed BytesScanned went backwards: %d after %d", c.BytesScanned, prev)
			}
			prev = c.BytesScanned
			obs.FlowStats()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	for i := range segs {
		d.HandleBatch(segs[i : i+1])
	}
	st := d.Close()
	close(stop)
	scrapes.Wait()

	if alerts.Load() != 40 {
		t.Fatalf("alerts = %d, want 40", alerts.Load())
	}
	c := obs.Counters()
	if c.Matches == 0 || c.BytesScanned == 0 {
		t.Fatalf("observer saw no scan activity: %+v", c)
	}
	fs := obs.FlowStats()
	if fs.FlowsClosed != st.FlowsClosed {
		t.Fatalf("observer FlowsClosed=%d, Close reported %d", fs.FlowsClosed, st.FlowsClosed)
	}
	// Close is idempotent from any goroutine.
	if st2 := d.Close(); st2.FlowsClosed != st.FlowsClosed {
		t.Fatalf("second Close reported different stats: %+v vs %+v", st2, st)
	}
}

// TestDispatcherFlushAll: alerts held back by batch watermarks must
// surface after FlushAll, without closing the dispatcher.
func TestDispatcherFlushAll(t *testing.T) {
	set := mixedRuleSet()
	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	var alerts atomic.Int64
	d := e.NewDispatcher(2, netsim.Limits{}, func(Alert) { alerts.Add(1) })

	// One small in-order segment per flow: far below the default
	// watermarks, so nothing flushes on its own. No FIN, flows stay
	// open.
	for i := 0; i < 6; i++ {
		d.HandleBatch([]netsim.Segment{{
			Flow:    key(i, 80),
			Payload: []byte("hit http-attack-xyz here"),
		}})
	}
	d.FlushAll()
	if alerts.Load() != 6 {
		t.Fatalf("after FlushAll: %d alerts, want 6", alerts.Load())
	}
	// Ingest continues after a flush.
	d.HandleBatch([]netsim.Segment{{Flow: key(99, 80), Payload: []byte("http-attack-xyz")}})
	d.FlushAll()
	if alerts.Load() != 7 {
		t.Fatalf("after second FlushAll: %d alerts, want 7", alerts.Load())
	}
	d.Close()
	if alerts.Load() != 7 {
		t.Fatalf("Close duplicated alerts: %d", alerts.Load())
	}
	d.FlushAll() // no-op after Close, must not hang or panic

	// The batch constructor: each HandleBatch routes several slabs to
	// every shard, and every alert of every slab queued before FlushAll
	// is delivered before it returns — exactly once, in non-empty
	// batches the sink must copy (the slice is reused).
	type hit struct {
		flow netsim.FlowKey
		off  int64
	}
	var mu sync.Mutex
	seen := map[hit]int{}
	bd := e.NewBatchDispatcher(2, netsim.Limits{}, func(as []Alert) {
		if len(as) == 0 {
			t.Error("empty alert batch")
		}
		mu.Lock()
		for _, a := range as {
			seen[hit{a.Flow, a.StreamOffset}]++
		}
		mu.Unlock()
	})
	payload := []byte("hit http-attack-xyz here")
	const flows, perFlow = 40, 8 // 320 segments per call: >= 2 slabs per shard
	for round := 0; round < 3; round++ {
		var segs []netsim.Segment
		for f := 0; f < flows; f++ {
			for j := 0; j < perFlow; j++ {
				off := (round*perFlow + j) * len(payload)
				segs = append(segs, netsim.Segment{Flow: key(f, 80), Seq: uint32(off), Payload: payload})
			}
		}
		bd.HandleBatch(segs)
		bd.FlushAll()
		mu.Lock()
		got := len(seen)
		mu.Unlock()
		if want := (round + 1) * flows * perFlow; got != want {
			t.Fatalf("batch dispatcher, round %d: %d distinct alerts after FlushAll, want %d", round, got, want)
		}
	}
	bd.Close()
	for h, n := range seen {
		if n != 1 || (h.off-4)%int64(len(payload)) != 0 {
			t.Fatalf("alert %+v delivered %d times", h, n)
		}
	}
}

// evasiveRules is the rule pair the observer and pipeline-equivalence
// tests run: a clause-chained probe and an anchored pcre tail.
func evasiveRules(t *testing.T) *rules.Set {
	return parseRules(t, 0,
		`alert tcp any any -> any 80 (msg:"probe"; content:"GET /"; depth:16; content:"admin"; nocase; distance:0; within:64; sid:1;)`,
		`alert tcp any any -> any 80 (msg:"tok"; content:"token="; pcre:"/[0-9a-f]{8}/"; sid:2;)`)
}

// evasiveSegs cuts the adversarial corpus's attack shapes for rset —
// a matching request, anchor floods, near misses and random bytes —
// into evasively delivered segments (traffic.Evasive) over 15 HTTP
// flows.
func evasiveSegs(rset *rules.Set) []netsim.Segment {
	payloads := [][]byte{
		[]byte("GET /admin HTTP/1.1 token=deadbeef trailer"),
		traffic.FloodAnchors([]byte("token="), []byte("zzzzzzzz"), 12, 3),
		traffic.FloodAnchors([]byte("token="), []byte("deadbeef"), 8, 5),
		traffic.NearMisses(rset.Lits, 40, 7),
		traffic.Random(2048, 9),
	}
	var segs []netsim.Segment
	for i, p := range payloads {
		for seed := int64(1); seed <= 3; seed++ {
			k := key(i*10+int(seed), 80)
			for _, c := range traffic.Evasive(p, seed) {
				seg := netsim.Segment{Flow: k, Seq: uint32(c.Off), Payload: c.Data, TsMicros: 1}
				if c.Fin {
					seg.Flags = netsim.FlagFIN
				}
				segs = append(segs, seg)
			}
		}
	}
	return segs
}

// observeDefault attaches a scan observer to e's default shard.
func observeDefault(e *Engine) *metrics.Atomic {
	var a metrics.Atomic
	e.def.SetObserver(&a, nil)
	return &a
}

// driveDefault feeds segs through e's default shard, observed, and
// returns the shard's final scan counters.
func driveDefault(e *Engine, segs []netsim.Segment) vpatch.Counters {
	obs := observeDefault(e)
	for _, s := range segs {
		e.HandleSegment(s)
	}
	e.Flush()
	return obs.Snapshot()
}

// TestObserverDoesNotChangeScans: a dispatcher with Observe() attached
// — the way every vpatch-serve tenant runs — must produce the same
// alerts as one without, and publish the same BytesScanned, Matches and
// RuleAlerts an observed default shard tallies over the same segments,
// on the adversarial corpus's attack shapes under evasive delivery.
// Attaching the observer used to reroute every scan through the lane
// emulation.
func TestObserverDoesNotChangeScans(t *testing.T) {
	rset := evasiveRules(t)
	segs := evasiveSegs(rset)
	e, err := NewRuleEngine(rset, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	run := func(observe bool) ([]Alert, vpatch.Counters) {
		var mu sync.Mutex
		var alerts []Alert
		d := e.NewDispatcher(2, netsim.Limits{}, func(a Alert) {
			mu.Lock()
			alerts = append(alerts, a)
			mu.Unlock()
		})
		var obs *PipelineObserver
		if observe {
			obs = d.Observe()
		}
		d.HandleBatch(segs)
		d.Close()
		sortAlerts(alerts)
		if obs == nil {
			return alerts, vpatch.Counters{}
		}
		return alerts, obs.Counters()
	}
	bare, _ := run(false)
	observed, oc := run(true)
	ic := driveDefault(e, segs)

	if len(bare) == 0 {
		t.Fatal("test needs alerts")
	}
	if fmt.Sprint(bare) != fmt.Sprint(observed) {
		t.Fatalf("observer changed the alerts:\n bare     %v\n observed %v", bare, observed)
	}
	if oc.BytesScanned == 0 || oc.Matches == 0 || oc.RuleAlerts != uint64(len(bare)) {
		t.Fatalf("observer counters not filled: bytes %d, matches %d, rule alerts %d (alerts %d)",
			oc.BytesScanned, oc.Matches, oc.RuleAlerts, len(bare))
	}
	if oc.BytesScanned != ic.BytesScanned || oc.Matches != ic.Matches || oc.RuleAlerts != ic.RuleAlerts {
		t.Fatalf("dispatcher and default-shard counters disagree: bytes %d/%d, matches %d/%d, rule alerts %d/%d",
			oc.BytesScanned, ic.BytesScanned, oc.Matches, ic.Matches, oc.RuleAlerts, ic.RuleAlerts)
	}
	// The production path: no emulation-only counter moves, and the three
	// round clocks all run (OtherNs is the rule evaluation's).
	if oc.Gathers != 0 || oc.Filter1Probes != 0 {
		t.Fatalf("observed scans ran the lane emulation: %+v", oc)
	}
	if oc.FilteringNs <= 0 || oc.VerifyNs <= 0 || oc.OtherNs <= 0 {
		t.Fatalf("round clocks: filter %d, verify %d, other %d", oc.FilteringNs, oc.VerifyNs, oc.OtherNs)
	}
}

// TestSingleShardDispatcherMatchesDefaultShard: a one-worker dispatcher
// is the default shard behind a channel — the same alert sequence
// (unsorted: one worker delivers in handling order) and the same scan
// counters, timers aside, on literal and rule engines under evasive
// delivery. vpatch-ids runs every -shards value, 1 included, through
// the dispatcher on the strength of this.
func TestSingleShardDispatcherMatchesDefaultShard(t *testing.T) {
	rset := evasiveRules(t)
	segs := evasiveSegs(rset)
	build := map[string]func(emit func(Alert)) (*Engine, error){
		"literal": func(emit func(Alert)) (*Engine, error) {
			return NewEngine(rset.Lits, vpatch.Options{}, emit)
		},
		"rules": func(emit func(Alert)) (*Engine, error) {
			return NewRuleEngine(rset, vpatch.Options{}, emit)
		},
	}
	untimed := func(c vpatch.Counters) vpatch.Counters {
		c.FilteringNs, c.VerifyNs, c.OtherNs = 0, 0, 0
		return c
	}
	for name, mk := range build {
		var want []Alert
		def, err := mk(func(a Alert) { want = append(want, a) })
		if err != nil {
			t.Fatal(err)
		}
		wantC := driveDefault(def, segs)

		e, err := mk(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []Alert
		d := e.NewDispatcher(1, netsim.Limits{}, func(a Alert) { got = append(got, a) })
		obs := d.Observe()
		d.HandleBatch(segs)
		d.Close()
		gotC := obs.Counters()

		if len(want) == 0 {
			t.Fatalf("%s: test needs alerts", name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: 1-shard dispatcher alert sequence differs from the default shard's:\n got  %v\n want %v",
				name, got, want)
		}
		if untimed(gotC) != untimed(wantC) {
			t.Fatalf("%s: counters differ:\n dispatcher    %s\n default shard %s", name, &gotC, &wantC)
		}
	}
}

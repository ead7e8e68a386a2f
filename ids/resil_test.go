package ids

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"vpatch"
	"vpatch/internal/arena"
	"vpatch/internal/netsim"
	"vpatch/internal/resil"
)

// floodPayload packs n anchor sites ("token=" + an 8-byte rejecting
// tail) — every site forces a verifier run that can never alert, the
// match-flood shape.
func floodPayload(n int) []byte {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "token=zzzzzzzz pad%04d ", i)
	}
	return []byte(b.String())
}

// TestVerifierBudgetDegradesFlow: a flow spending verifier cycles past
// its budget is demoted to literal-only alerting — later anchors cost
// literal alerts, not DFA work — and the demotion is counted.
func TestVerifierBudgetDegradesFlow(t *testing.T) {
	rset := parseRules(t, 0,
		`alert tcp any any -> any 80 (msg:"tok"; content:"token="; pcre:"/[0-9a-f]{8}/"; sid:1;)`)
	var alerts []Alert
	e, err := NewRuleEngine(rset, vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	price := resil.DefaultPrice()
	// Budget covers only a handful of runs.
	e.SetVerifierBudget(resil.VerifierBudget{PerFlow: 3 * price.PerRun, Price: price})
	obs := observeDefault(e)

	k := key(1, 80)
	seq := uint32(0)
	feed := func(data []byte) {
		e.HandleSegment(netsim.Segment{Flow: k, Seq: seq, Payload: data})
		seq += uint32(len(data))
		e.Flush()
	}

	// Phase 1: flood anchors until the budget trips.
	feed(floodPayload(50))
	c := obs.Snapshot()
	if c.DegradedFlows != 1 || c.VerifierBudgetExhausted != 1 {
		t.Fatalf("degraded=%d exhausted=%d after flood; want 1/1 (counters: %v)",
			c.DegradedFlows, c.VerifierBudgetExhausted, c.String())
	}
	runsAfterFlood := c.VerifierRuns

	// Phase 2: the degraded flow's anchors surface as literal alerts
	// and buy zero further verifier runs.
	pre := len(alerts)
	feed([]byte("x token=deadbeef y token=deadbeef z"))
	if c := obs.Snapshot(); c.VerifierRuns != runsAfterFlood {
		t.Fatalf("degraded flow still ran the verifier: %d -> %d runs",
			runsAfterFlood, c.VerifierRuns)
	}
	lit := 0
	for _, a := range alerts[pre:] {
		if a.RuleID != -1 {
			t.Fatalf("degraded flow emitted a rule alert: %+v", a)
		}
		if a.PatternID >= 0 {
			lit++
		}
	}
	if lit != 2 {
		t.Fatalf("degraded flow emitted %d literal alerts; want 2", lit)
	}

	// A fresh flow on the same shard gets its own budget: full rule
	// semantics until it, too, overspends.
	pre = len(alerts)
	e.HandleSegment(netsim.Segment{Flow: key(2, 80), Payload: []byte("token=deadbeef")})
	e.Flush()
	found := false
	for _, a := range alerts[pre:] {
		if a.RuleID == 0 && a.Flow == key(2, 80) {
			found = true
		}
	}
	if !found {
		t.Fatalf("fresh flow lost rule semantics: %+v", alerts[pre:])
	}
}

// TestVerifierBudgetTenantPool: the shared pool degrades flows when the
// tenant-wide spend runs dry, even though each flow is under its
// per-flow cap.
func TestVerifierBudgetTenantPool(t *testing.T) {
	rset := parseRules(t, 0,
		`alert tcp any any -> any 80 (msg:"tok"; content:"token="; pcre:"/[0-9a-f]{8}/"; sid:1;)`)
	e, err := NewRuleEngine(rset, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	price := resil.DefaultPrice()
	// A pool worth a few runs total, refilling too slowly to matter.
	pool := resil.NewPool(1, 4*price.PerRun)
	e.SetVerifierBudget(resil.VerifierBudget{Pool: pool, Price: price})
	obs := observeDefault(e)

	for f := 0; f < 8; f++ {
		e.HandleSegment(netsim.Segment{Flow: key(f, 80), Payload: floodPayload(20)})
		e.Flush()
	}
	if c := obs.Snapshot(); c.DegradedFlows == 0 {
		t.Fatalf("tenant pool never degraded a flow: %s", c.String())
	}
	if pool.Denied() == 0 {
		t.Fatal("pool denied nothing")
	}
}

// TestVerifierBudgetCleanEquivalence: a generous budget must not
// change any alert on ordinary traffic — same rules, same segments,
// identical alert sets with and without the budget armed.
func TestVerifierBudgetCleanEquivalence(t *testing.T) {
	rset := parseRules(t, 0,
		`alert tcp any any -> any 80 (msg:"probe"; content:"GET /"; depth:16; content:"admin"; nocase; distance:0; within:64; sid:1;)`,
		`alert tcp any any -> any 80 (msg:"tok"; content:"token="; pcre:"/[0-9a-f]{8}/"; sid:2;)`)
	flows := map[netsim.FlowKey][]byte{
		key(1, 80): []byte("GET /aDmIn HTTP/1.1 token=deadbeef more"),
		key(2, 80): []byte("GET /index.html token=nothexhere"),
		key(3, 80): []byte("nothing interesting at all here"),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 16, Jitter: 4, Seed: 3, FIN: true})

	run := func(b resil.VerifierBudget) []Alert {
		var alerts []Alert
		e, err := NewRuleEngine(rset, vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
		if err != nil {
			t.Fatal(err)
		}
		e.SetVerifierBudget(b)
		for _, s := range segs {
			e.HandleSegment(s)
		}
		e.Flush()
		sortAlerts(alerts)
		return alerts
	}
	plain := run(resil.VerifierBudget{})
	budgeted := run(resil.VerifierBudget{
		PerFlow: resil.DefaultFlowBudget,
		Pool:    resil.NewPool(1<<30, 1<<30),
		Price:   resil.DefaultPrice(),
	})
	if len(plain) == 0 {
		t.Fatal("no alerts at all — test traffic broken")
	}
	if fmt.Sprint(plain) != fmt.Sprint(budgeted) {
		t.Fatalf("budgeted alerts differ:\nplain:    %v\nbudgeted: %v", plain, budgeted)
	}
}

// TestDispatcherShutdownRaces drives batched and one-segment
// HandleBatch senders and FlushAll concurrently with Close: no panic, no deadlock, no payload leak —
// the shutdown race every ingest connection of a resident service runs
// against Drain. Race-pinned in CI.
func TestDispatcherShutdownRaces(t *testing.T) {
	set := mixedRuleSet()
	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		a := arena.New(arena.Config{})
		d := e.NewDispatcher(2, netsim.Limits{MaxFlows: 128}, func(Alert) {})
		d.SetArena(a)

		payload := []byte("steady state traffic with generic-bad-001 inside")
		rent := func(f int, seq uint32) netsim.Segment {
			b := a.Rent(len(payload))
			data := b.Data()[:len(payload)]
			copy(data, payload)
			seg := netsim.Segment{Flow: key(f, 9999), Seq: seq, Payload: data}
			seg.SetOwned(b)
			return seg
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(4)
		go func() { // batched sender
			defer wg.Done()
			<-start
			var seq uint32
			for i := 0; i < 200; i++ {
				batch := make([]netsim.Segment, 0, 8)
				for f := 0; f < 8; f++ {
					batch = append(batch, rent(f, seq))
				}
				seq += uint32(len(payload))
				d.HandleBatch(batch)
			}
		}()
		go func() { // per-segment sender
			defer wg.Done()
			<-start
			var seq uint32
			for i := 0; i < 400; i++ {
				d.HandleBatch([]netsim.Segment{rent(8+i%4, seq)})
				if i%4 == 3 {
					seq += uint32(len(payload))
				}
			}
		}()
		go func() { // flusher
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				d.FlushAll()
			}
		}()
		go func() { // closer, racing everyone
			defer wg.Done()
			<-start
			d.Close()
		}()
		close(start)
		wg.Wait()
		d.Close() // idempotent
		if st := a.Stats(); st.InUse != 0 {
			t.Fatalf("round %d: arena leak after racing shutdown: %d bytes in use",
				round, st.InUse)
		}
	}
}

// TestDispatcherHandleAfterClose: HandleBatch drops cleanly after Close,
// releasing owned payloads, for a one-segment and a longer batch.
func TestDispatcherHandleAfterClose(t *testing.T) {
	e, err := NewEngine(mixedRuleSet(), vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	a := arena.New(arena.Config{})
	d := e.NewDispatcher(2, netsim.Limits{}, func(Alert) {})
	d.SetArena(a)
	d.Close()

	b := a.Rent(32)
	seg := netsim.Segment{Flow: key(1, 80), Payload: b.Data()[:32]}
	seg.SetOwned(b)
	d.HandleBatch([]netsim.Segment{seg})

	var batch []netsim.Segment
	for f := 2; f < 5; f++ {
		b := a.Rent(32)
		seg := netsim.Segment{Flow: key(f, 80), Payload: b.Data()[:32]}
		seg.SetOwned(b)
		batch = append(batch, seg)
	}
	d.HandleBatch(batch)

	d.FlushAll() // no-op, must not hang
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("post-Close ingest leaked: %d bytes in use", st.InUse)
	}
}

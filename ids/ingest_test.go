package ids

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"vpatch"
	"vpatch/internal/arena"
	"vpatch/internal/netsim"
)

// dispatchAll feeds segs through an n-shard dispatcher in uneven
// HandleBatch calls and returns the sorted alerts.
func dispatchAll(t *testing.T, set *vpatch.PatternSet, segs []netsim.Segment, n int) []Alert {
	t.Helper()
	var mu sync.Mutex
	var alerts []Alert
	sink := func(a Alert) {
		mu.Lock()
		alerts = append(alerts, a)
		mu.Unlock()
	}
	e, err := NewEngine(set, vpatch.Options{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	d := e.NewDispatcher(n, netsim.Limits{}, sink)
	// Uneven batch sizes: slabs of every fill level, one or two per shard.
	for i := 0; i < len(segs); {
		j := i + 1 + i%7
		if j > len(segs) {
			j = len(segs)
		}
		d.HandleBatch(segs[i:j])
		i = j
	}
	d.Close()
	sortAlerts(alerts)
	return alerts
}

// perSegmentAlerts is the per-segment reference: every segment through
// Engine.HandleSegment on the default shard, one goroutine and no
// dispatcher, as bench/oracle.go does.
func perSegmentAlerts(t *testing.T, set *vpatch.PatternSet, segs []netsim.Segment) []Alert {
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
	sortAlerts(alerts)
	return alerts
}

// TestHandleBatchAlertIdentity proves the batched dispatcher emits
// exactly the alerts of the per-segment path, across shard counts and
// reordered traffic.
func TestHandleBatchAlertIdentity(t *testing.T) {
	set := mixedRuleSet()
	flows := map[netsim.FlowKey][]byte{}
	for i := 0; i < 24; i++ {
		port := []uint16{80, 53, 21, 9999}[i%4]
		payload := bytes.Repeat([]byte("padpadpad "), 40+i)
		copy(payload[37:], "http-attack-xyz")
		copy(payload[200:], "generic-bad-001")
		copy(payload[260:], "dns-poison-abc")
		flows[key(i, port)] = payload
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{
		MTU: 48, Jitter: 6, DuplicateFrac: 0.05, FIN: true, Seed: 77,
	})
	want := perSegmentAlerts(t, set, segs)
	if len(want) == 0 {
		t.Fatal("no alerts from baseline")
	}
	for _, shards := range []int{1, 3} {
		got := dispatchAll(t, set, segs, shards)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d: HandleBatch alerts differ: %d vs %d", shards, len(got), len(want))
		}
	}
}

// TestHandleBatchHoldsNothingBack: a batch that fills no slab (3
// segments over 2 shards) is on the workers' channels when HandleBatch
// returns. The dispatcher keeps no segment between calls, so nothing
// waits for a later call, a timer or FlushAll.
func TestHandleBatchHoldsNothingBack(t *testing.T) {
	e, err := NewEngine(mixedRuleSet(), vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	alerts := make(chan Alert, 3)
	d := e.NewDispatcher(2, netsim.Limits{}, func(a Alert) { alerts <- a })
	defer d.Close()
	// Scan-per-payload shards: a segment that reaches its worker alerts
	// without any flush. Published to the workers by the first slab send.
	for _, w := range d.workers {
		w.sh.maxBatchBufs = 1
	}

	// Only SrcIP varies: key()'s paired SrcIP/SrcPort steps cancel in the
	// hash's low bit and would put every flow on one shard.
	var segs []netsim.Segment
	var onShard [2]int
	for i := uint32(0); i < 3; i++ {
		k := netsim.FlowKey{SrcIP: 0x0A000001 + i, DstIP: 0xC0A80001, SrcPort: 40000, DstPort: 80}
		onShard[k.Hash()%2]++
		segs = append(segs, netsim.Segment{Flow: k, Payload: []byte("hit http-attack-xyz here")})
	}
	if onShard[0] == 0 || onShard[1] == 0 {
		t.Fatalf("test flows cover one shard only: %v", onShard)
	}
	d.HandleBatch(segs)

	d.mu.Lock()
	for i, slab := range d.acc {
		if len(slab) != 0 {
			t.Errorf("shard %d: dispatcher still holds %d segments after HandleBatch returned", i, len(slab))
		}
	}
	d.mu.Unlock()
	for range segs {
		select {
		case <-alerts:
		case <-time.After(30 * time.Second):
			t.Fatal("a segment never reached its worker")
		}
	}
}

// TestDispatcherDefensiveCopy is the aliasing-corruption regression:
// a capture loop that recycles one read buffer across HandleBatch calls
// must not corrupt queued segments. Before the defensive copy this
// raced (the doc comment was the only guard) — payloads were scribbled
// over while workers still held references.
func TestDispatcherDefensiveCopy(t *testing.T) {
	set := vpatch.NewPatternSet()
	set.Add([]byte("needle-in-flow"), false, vpatch.ProtoGeneric)

	var mu sync.Mutex
	var alerts []Alert
	sink := func(a Alert) {
		mu.Lock()
		alerts = append(alerts, a)
		mu.Unlock()
	}
	e, err := NewEngine(set, vpatch.Options{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	d := e.NewDispatcher(2, netsim.Limits{}, sink)

	const flowsN = 64
	buf := make([]byte, 256) // the single recycled read buffer
	for i := 0; i < flowsN; i++ {
		for j := range buf {
			buf[j] = '.'
		}
		copy(buf[100:], "needle-in-flow")
		d.HandleBatch([]netsim.Segment{{Flow: key(i, 9999), Seq: 0, Payload: buf}})
		// Immediately scribble over the buffer, as the next read would.
		for j := range buf {
			buf[j] = 'X'
		}
	}
	d.Close()
	if len(alerts) != flowsN {
		t.Fatalf("got %d alerts, want %d: recycled read buffer corrupted queued segments", len(alerts), flowsN)
	}
}

// TestDispatcherArenaExhaustionIdentical runs the pipeline on an arena
// so small every rent overflows to the heap, proving overflow mode is
// alert-identical and the overflow gauge counts it.
func TestDispatcherArenaExhaustionIdentical(t *testing.T) {
	set := mixedRuleSet()
	flows := map[netsim.FlowKey][]byte{}
	for i := 0; i < 12; i++ {
		payload := bytes.Repeat([]byte("filler bytes here "), 30)
		copy(payload[50:], "generic-bad-001")
		flows[key(i, 9999)] = payload
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{
		MTU: 64, Jitter: 8, FIN: true, Seed: 5,
	})

	want := dispatchAll(t, set, segs, 2)

	tiny := arena.New(arena.Config{MaxBytes: 64}) // one rent fills the cap
	var mu sync.Mutex
	var got []Alert
	sink := func(a Alert) {
		mu.Lock()
		got = append(got, a)
		mu.Unlock()
	}
	e, err := NewEngine(set, vpatch.Options{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	d := e.NewDispatcher(2, netsim.Limits{}, sink)
	d.SetArena(tiny)
	d.HandleBatch(segs)
	d.Close()
	sortAlerts(got)

	if len(want) == 0 || !reflect.DeepEqual(want, got) {
		t.Fatalf("overflow-mode alerts differ: %d vs %d", len(got), len(want))
	}
	if st := tiny.Stats(); st.Overflows == 0 {
		t.Fatal("expected overflow rents under a 64-byte cap")
	} else if st.InUse != 0 {
		t.Fatalf("arena InUse = %d after Close", st.InUse)
	}
}

// TestReleaseAfterDispatcherClose: chunks the capture loop rented but
// never handed off must still release cleanly after the dispatcher is
// gone (the arena outlives any one dispatcher).
func TestReleaseAfterDispatcherClose(t *testing.T) {
	a := arena.New(arena.Config{})
	set := mixedRuleSet()
	drop := func(Alert) {}
	e, err := NewEngine(set, vpatch.Options{}, drop)
	if err != nil {
		t.Fatal(err)
	}
	d := e.NewDispatcher(2, netsim.Limits{}, drop)
	d.SetArena(a)

	b := a.Rent(512)
	copy(b.Data(), "generic-bad-001")
	var seg netsim.Segment
	seg.Flow = key(1, 9999)
	seg.Payload = b.Data()[:64]
	seg.SetOwned(b)
	d.HandleBatch([]netsim.Segment{seg})
	d.Close()

	stray := a.Rent(128) // rented before Close, released after
	stray.Release()
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("arena InUse = %d after close+release", st.InUse)
	}
}

// TestIngestAllocs is the CI allocation-regression gate: once the
// pipeline is warm (flows established, slab pool and arena primed,
// batch buffers grown), the capture→dispatch→reassembly→scan path must
// run allocation-free — the tentpole property of the recycled ingest
// path.
func TestIngestAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is timing-insensitive but not short")
	}
	set := mixedRuleSet()
	drop := func(Alert) {}
	e, err := NewEngine(set, vpatch.Options{}, drop)
	if err != nil {
		t.Fatal(err)
	}
	a := arena.New(arena.Config{})
	d := e.NewDispatcher(2, netsim.Limits{MaxFlows: 256}, drop)
	d.SetArena(a)

	const (
		flowsN  = 64
		perCall = 512
		segLen  = 120
	)
	template := bytes.Repeat([]byte("steady state ingest "), 6)[:segLen]
	copy(template[40:], "generic-bad-001") // occasional real match work
	seqs := make([]uint32, flowsN)
	batch := make([]netsim.Segment, 0, 64)

	feed := func(n int) {
		for i := 0; i < n; i++ {
			f := i % flowsN
			b := a.Rent(segLen)
			data := b.Data()[:segLen]
			copy(data, template)
			var seg netsim.Segment
			seg.Flow = key(f, 9999)
			seg.Seq = seqs[f]
			seg.Payload = data
			seg.SetOwned(b)
			seqs[f] += segLen
			batch = append(batch, seg)
			if len(batch) == cap(batch) {
				d.HandleBatch(batch)
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			d.HandleBatch(batch)
			batch = batch[:0]
		}
	}

	// Warm every layer: flow states, sessions, slab pool, arena
	// classes, group-batch buffers. The chunk pool grows until it
	// covers the maximum in-flight window (slab backpressure bounds
	// it), so warm well past that plateau.
	for i := 0; i < 64; i++ {
		feed(perCall)
	}
	d.FlushAll()

	avg := testing.AllocsPerRun(10, func() { feed(perCall) })
	d.Close()
	perSeg := avg / perCall
	t.Logf("steady-state ingest: %.4f allocs/run (%.6f allocs/segment)", avg, perSeg)
	// The contract is 0 allocs/segment; allow a whisper of slack for
	// runtime-internal noise (timer wheel, GC assists) unrelated to
	// the per-segment path.
	if avg > 8 {
		t.Fatalf("steady-state ingest allocates: %.2f allocs per %d segments", avg, perCall)
	}
}

// BenchmarkIngestBatched measures the batched owned-segment fast path
// end to end, reporting segments/s.
func BenchmarkIngestBatched(b *testing.B) {
	set := mixedRuleSet()
	drop := func(Alert) {}
	e, err := NewEngine(set, vpatch.Options{}, drop)
	if err != nil {
		b.Fatal(err)
	}
	for _, segLen := range []int{64, 512, 1460} {
		b.Run(fmt.Sprintf("seg%d", segLen), func(b *testing.B) {
			a := arena.New(arena.Config{})
			d := e.NewDispatcher(4, netsim.Limits{MaxFlows: 1024}, drop)
			d.SetArena(a)
			const flowsN = 256
			template := bytes.Repeat([]byte{'x'}, segLen)
			seqs := make([]uint32, flowsN)
			batch := make([]netsim.Segment, 0, 64)
			b.SetBytes(int64(segLen))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := i % flowsN
				buf := a.Rent(segLen)
				data := buf.Data()[:segLen]
				copy(data, template)
				var seg netsim.Segment
				seg.Flow = key(f, 9999)
				seg.Seq = seqs[f]
				seg.Payload = data
				seg.SetOwned(buf)
				seqs[f] += uint32(segLen)
				batch = append(batch, seg)
				if len(batch) == cap(batch) {
					d.HandleBatch(batch)
					batch = batch[:0]
				}
			}
			d.HandleBatch(batch)
			b.StopTimer()
			d.Close()
		})
	}
}

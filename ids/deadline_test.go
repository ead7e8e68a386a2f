package ids

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vpatch"
	"vpatch/internal/arena"
	"vpatch/internal/metrics"
	"vpatch/internal/netsim"
)

// TestShardFlushAged pins the deadline flush on a bare shard with an
// explicit clock: a group is scanned once its oldest job has waited the
// given age, not a nanosecond earlier, and only then counts as a
// deadline flush. A bare shard keeps no timer, so without flushAged or
// Flush the job simply waits.
func TestShardFlushAged(t *testing.T) {
	var alerts []Alert
	e, err := NewEngine(mixedRuleSet(), vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	sh := e.def
	var scan metrics.Atomic
	sh.SetObserver(&scan, nil)
	k := key(1, 80)
	sh.HandleSegment(netsim.Segment{Flow: k, Payload: []byte("hit http-attack-xyz here")})
	pb := sh.pending[e.groupFor(k)]
	if pb == nil || len(pb.bufs) != 1 {
		t.Fatal("payload not pending on its group")
	}
	time.Sleep(3 * MaxAlertDelay)
	if len(alerts) != 0 {
		t.Fatalf("bare shard alerted on its own: %+v", alerts)
	}

	due := pb.since.Add(MaxAlertDelay)
	if next := sh.flushAged(due.Add(-time.Nanosecond), MaxAlertDelay); !next.Equal(due) || len(alerts) != 0 {
		t.Fatalf("before the deadline: next %v (want %v), %d alerts", next, due, len(alerts))
	}
	if next := sh.flushAged(due, MaxAlertDelay); !next.IsZero() || len(alerts) != 1 {
		t.Fatalf("at the deadline: next %v (want zero), %d alerts (want 1)", next, len(alerts))
	}
	if got := scan.Snapshot().DeadlineFlushes; got != 1 {
		t.Fatalf("DeadlineFlushes = %d, want 1", got)
	}
	if next := sh.flushAged(due.Add(time.Hour), MaxAlertDelay); !next.IsZero() || len(alerts) != 1 {
		t.Fatalf("nothing pending: next %v, %d alerts", next, len(alerts))
	}
}

// TestDispatcherAlertsWithinDelay: one sub-watermark payload of a
// matching flow, no Flush, no FIN — the quiet-link case. Its alert
// leaves within a generous multiple of MaxAlertDelay, through exactly
// one deadline flush.
func TestDispatcherAlertsWithinDelay(t *testing.T) {
	e, err := NewEngine(mixedRuleSet(), vpatch.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	alerts := make(chan Alert, 1)
	d := e.NewDispatcher(2, netsim.Limits{}, func(a Alert) { alerts <- a })
	defer d.Close()
	obs := d.Observe()

	k := key(1, 80)
	sent := time.Now()
	d.HandleBatch([]netsim.Segment{{Flow: k, Payload: []byte("hit http-attack-xyz here")}})
	select {
	case a := <-alerts:
		if a.Flow != k || a.StreamOffset != 4 {
			t.Fatalf("alert %+v, want flow %v offset 4", a, k)
		}
		t.Logf("alert after %v", time.Since(sent))
	case <-time.After(250 * time.Millisecond):
		t.Fatal("no alert within 250 ms: the pending group never flushed")
	}
	if got := obs.Counters().DeadlineFlushes; got != 1 {
		t.Fatalf("DeadlineFlushes = %d, want 1", got)
	}
}

// TestFullRateFlushesByWatermark: a steady full-rate HandleBatch stream
// fills every group to its watermark long before MaxAlertDelay, so the
// deadline flush stays out of the way. The bound leaves room for a
// descheduled producer (a few stalls past the delay) and for the
// partial groups left when the feed stops.
func TestFullRateFlushesByWatermark(t *testing.T) {
	e, err := NewEngine(mixedRuleSet(), vpatch.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	d := e.NewDispatcher(shards, netsim.Limits{}, func(Alert) {})
	d.SetArena(arena.New(arena.Config{}))
	obs := d.Observe()

	const (
		flowsN = 64
		segs   = 32 << 10
		segLen = 120
	)
	payload := bytes.Repeat([]byte("steady state ingest "), 6)[:segLen]
	copy(payload[40:], "generic-bad-001")
	seqs := make([]uint32, flowsN)
	batch := make([]netsim.Segment, 0, 64)
	for i := 0; i < segs; i++ {
		f := i % flowsN
		batch = append(batch, netsim.Segment{Flow: key(f, 9999), Seq: seqs[f], Payload: payload})
		seqs[f] += segLen
		if len(batch) == cap(batch) {
			d.HandleBatch(batch)
			batch = batch[:0]
		}
	}
	d.Close()

	c := obs.Counters()
	if c.Matches != segs {
		t.Fatalf("%d matches, want %d", c.Matches, segs)
	}
	watermarkFlushes := uint64(segs / DefaultBatchBufs)
	t.Logf("%d deadline flushes next to %d watermark flushes", c.DeadlineFlushes, watermarkFlushes)
	if c.DeadlineFlushes > watermarkFlushes/20+shards {
		t.Fatalf("%d deadline flushes at full rate (watermarks flush %d batches)", c.DeadlineFlushes, watermarkFlushes)
	}
}

// TestDispatcherCloseStopsTimers: Close ends every worker goroutine and
// leaves no timer running, including the timers armed for payloads
// still pending when Close was called.
func TestDispatcherCloseStopsTimers(t *testing.T) {
	e, err := NewEngine(mixedRuleSet(), vpatch.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	const shards = 3
	var alerts atomic.Int64
	d := e.NewBatchDispatcher(shards, netsim.Limits{}, func(as []Alert) { alerts.Add(int64(len(as))) })
	// One pending payload per shard, so every worker arms its timer.
	var onShard [shards]bool
	var batch []netsim.Segment
	for i := 0; len(batch) < shards; i++ {
		k := key(i, 80)
		if s := k.Hash() % shards; !onShard[s] {
			onShard[s] = true
			batch = append(batch, netsim.Segment{Flow: k, Payload: []byte("hit http-attack-xyz here")})
		}
	}
	d.HandleBatch(batch)
	d.Close()

	if n := alerts.Load(); n != shards {
		t.Fatalf("%d alerts after Close, want %d", n, shards)
	}
	for i, w := range d.workers {
		if w.timer == nil {
			t.Fatalf("worker %d never armed its timer", i)
		}
		if w.timer.Stop() {
			t.Fatalf("worker %d left its timer running after Close", i)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the dispatcher", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

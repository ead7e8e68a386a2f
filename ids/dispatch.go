package ids

// Multi-shard dispatch: the capture loop stays single-goroutine (one
// reader per NIC queue), while flows are hash-partitioned across N
// worker shards, each running on its own goroutine. Reassembly and
// scan state is strictly per-shard, so workers never contend on
// anything but the compiled rule groups (immutable) and the caller's
// alert sink.
//
// Handoff rides the caller's batching: HandleBatch partitions each
// batch it is given into per-shard []netsim.Segment slabs and sends them
// before it returns, so channel operations — the dominant per-segment
// cost at small-packet rates — are paid once per shard per batch instead
// of once per segment, and the dispatcher never holds a segment between
// calls. Slabs are recycled through a bounded pool, and segment payloads
// ride refcounted arena chunks (see internal/arena), so the steady-state
// ingest path allocates nothing.
//
// Alerts leave in batches too: each worker collects its shard's alerts
// in a reused slice and hands it to the sink as soon as the segment that
// raised them (by triggering a group flush or a flow teardown) has been
// handled, and after every shard flush. A dense alert stream costs the
// sink one call per group flush rather than one per alert, and no alert
// waits for the rest of its slab.
//
// Alerts also leave within a bounded delay: after every slab, and when
// its timer fires, a worker flushes each group whose oldest pending job
// has waited MaxAlertDelay. At full rate the watermarks flush first and
// the timer never fires; on a quiet link a payload waits at most that
// long for a watermark that is not coming. The timer is armed only while
// the shard holds pending jobs.

import (
	"sync"
	"time"

	"vpatch"
	"vpatch/internal/arena"
	"vpatch/internal/metrics"
	"vpatch/internal/netsim"
	"vpatch/internal/resil"
	"vpatch/internal/resil/chaos"
)

// Dispatcher fans captured segments out to N worker shards by flow-key
// hash. HandleBatch is the one ingest entry point (amortized channel
// sends); Swap moves the shards onto another engine under live traffic.
// Close drains the workers and merges their stats.
type Dispatcher struct {
	workers []*worker
	wg      sync.WaitGroup
	obs     *PipelineObserver

	// arena backs defensive payload copies and the shard reassemblers;
	// zeroCopy disables the defensive copy for callers whose payload
	// buffers are stable (see SetZeroCopy).
	arena    *arena.Arena
	zeroCopy bool

	// Recycled slab pool: slabCount never exceeds slabMax, so once the
	// pool is warm takeSlab never allocates — and a capture loop that
	// outruns the workers blocks on slab reuse (bounded memory) rather
	// than growing the heap.
	slabMu    sync.Mutex
	slabs     chan []netsim.Segment
	slabCount int
	slabMax   int

	// mu serializes HandleBatch calls (so one sender's batches reach a
	// shard in call order) and guards the control plane (FlushAll and
	// Swap vs Close); closeOnce makes Close safe from any goroutine, any
	// number of times — a resident service's shutdown races its ingest
	// connections and scrapes.
	mu sync.Mutex
	// acc is HandleBatch's partition scratch: the slab each shard is
	// being filled with during one call. Every entry is nil again before
	// the call returns.
	acc       [][]netsim.Segment
	closed    bool
	closeOnce sync.Once
}

const (
	// dispatchQueueBatches is each worker's slab-channel buffer: deep
	// enough to ride out transient skew toward one shard without
	// stalling the capture loop, small enough to bound in-flight
	// segment references.
	dispatchQueueBatches = 64

	// DefaultDispatchBatch is the slab capacity: a HandleBatch call
	// that routes more segments than this to one shard hands them over
	// in several slabs, in order.
	DefaultDispatchBatch = 64
)

// NewDispatcher starts n worker shards (each with limits armed) fed by
// flow-key hash partitioning, delivering alerts to emit one at a time.
// emit is called concurrently from the n worker goroutines and must be
// safe for concurrent use; alerts of one flow always come from one
// worker, in stream order. It is NewBatchDispatcher with a sink that
// walks each batch. Close must be called to drain and stop the workers.
func (e *Engine) NewDispatcher(n int, limits netsim.Limits, emit func(Alert)) *Dispatcher {
	if emit == nil {
		panic("ids: nil alert sink")
	}
	return e.NewBatchDispatcher(n, limits, func(as []Alert) {
		for _, a := range as {
			emit(a)
		}
	})
}

// NewBatchDispatcher starts n worker shards (each with limits armed) fed
// by flow-key hash partitioning, delivering alerts to emit in batches:
// each worker hands over the alerts its shard raised while handling one
// segment of a slab — one group flush's worth, or one flow teardown's —
// after every deadline flush, and again after every shard flush
// (FlushAll and Close return only after those batches were delivered).
// emit is called concurrently from the n worker goroutines and must be
// safe for concurrent use; the slice is never empty, holds alerts of one
// worker only (those of one flow in stream order), and is reused after
// emit returns, so emit must copy anything it keeps. Shard reassemblers
// recycle their buffers through the shared arena (override with
// SetArena). Close must be called to drain and stop the workers.
func (e *Engine) NewBatchDispatcher(n int, limits netsim.Limits, emit func([]Alert)) *Dispatcher {
	if n < 1 {
		n = 1
	}
	if emit == nil {
		panic("ids: nil alert sink")
	}
	d := &Dispatcher{
		workers: make([]*worker, n),
		arena:   arena.Shared(),
		acc:     make([][]netsim.Segment, n),
	}
	d.slabMax = n*(dispatchQueueBatches+2) + 16
	d.slabs = make(chan []netsim.Segment, d.slabMax)
	for i := range d.workers {
		w := &worker{
			id:   i,
			ch:   make(chan []netsim.Segment, dispatchQueueBatches),
			ctl:  make(chan control),
			sink: emit,
		}
		w.sh = e.NewShard(func(a Alert) { w.out = append(w.out, a) })
		w.sh.SetLimits(limits)
		w.sh.SetArena(d.arena)
		d.workers[i] = w
		d.wg.Add(1)
		go w.run(d)
	}
	return d
}

// worker is one dispatcher goroutine and everything only it touches:
// its shard, the alerts collected between deliveries and the sink they
// go to (Swap rebinds it), and the timer that wakes it when a pending
// group comes due.
type worker struct {
	id  int
	sh  *Shard
	ch  chan []netsim.Segment
	ctl chan control

	out  []Alert
	sink func([]Alert)

	// timer fires when the shard's oldest pending group has waited
	// MaxAlertDelay; due is its channel while armed and nil otherwise (a
	// nil channel never fires in select). The timer is reset only after
	// its value was received, so it is never Reset while armed or with a
	// stale value queued (the pre-Go-1.23 timer rules).
	timer *time.Timer
	due   <-chan time.Time
}

func (w *worker) run(d *Dispatcher) {
	defer d.wg.Done()
	defer func() {
		if w.timer != nil {
			w.timer.Stop()
		}
	}()
	for {
		select {
		case bt, ok := <-w.ch:
			if !ok {
				w.flush()
				return
			}
			w.handle(d, bt)
		case <-w.due:
			w.due = nil
			w.age()
		case c := <-w.ctl:
			// Drain slabs already queued before flushing: select picks
			// randomly among ready channels, so without this a control
			// request could overtake segments sent before it and miss
			// their alerts.
			for drained := false; !drained; {
				select {
				case bt, ok := <-w.ch:
					if !ok {
						w.flush()
						close(c.done)
						return
					}
					w.handle(d, bt)
				default:
					drained = true
				}
			}
			w.flush()
			if c.eng != nil {
				w.sh.rebind(c.eng, c.sids)
				w.deliver() // verifications settled on the old engine
				w.sink = c.sink
			}
			close(c.done)
		}
	}
}

// deliver hands the collected alerts to the sink.
func (w *worker) deliver() {
	if len(w.out) > 0 {
		w.sink(w.out)
		w.out = w.out[:0]
	}
}

// handle runs one slab through the shard, returns the slab to the pool,
// and then flushes the groups that have waited long enough.
func (w *worker) handle(d *Dispatcher, bt []netsim.Segment) {
	if chaos.Armed() {
		chaos.Fire(chaos.DispatchBatch, w.id)
	}
	for j := range bt {
		// Per-segment panic recovery: a poisoned segment quarantines its
		// flow, never the shard (see Shard.handleSegmentSafe).
		w.sh.handleSegmentSafe(bt[j])
		bt[j] = netsim.Segment{}
		// Alerts are raised only by the group flush or flow teardown a
		// segment triggers: hand them over now rather than after the
		// rest of the slab.
		w.deliver()
	}
	d.putSlab(bt[:0])
	w.age()
}

// age flushes every group that has waited MaxAlertDelay and, while the
// shard still holds pending jobs, keeps the timer armed for the oldest
// of them. An armed timer already fires no later than that: groups
// started after it was armed come due after it.
func (w *worker) age() {
	now := time.Now()
	next := w.sh.flushAged(now, MaxAlertDelay)
	w.deliver()
	if next.IsZero() || w.due != nil {
		return
	}
	if w.timer == nil {
		w.timer = time.NewTimer(next.Sub(now))
	} else {
		w.timer.Reset(next.Sub(now))
	}
	w.due = w.timer.C
}

// flush scans the shard's pending batches and delivers their alerts.
func (w *worker) flush() {
	w.sh.Flush()
	w.deliver()
}

// SetArena replaces the arena backing defensive copies and the shard
// reassemblers. Must be called before the first HandleBatch.
func (d *Dispatcher) SetArena(a *arena.Arena) {
	d.arena = a
	for _, w := range d.workers {
		w.sh.SetArena(a)
	}
}

// SetVerifierBudget arms the match-flood defense on every worker shard
// (see Shard.SetVerifierBudget). Must be called before the first
// HandleBatch, like the other pre-start configuration.
func (d *Dispatcher) SetVerifierBudget(b resil.VerifierBudget) {
	for _, w := range d.workers {
		w.sh.SetVerifierBudget(b)
	}
}

// SetZeroCopy disables the defensive copy of unowned payloads. Only
// callers whose payload buffers remain valid and unmodified until the
// pipeline has consumed them (e.g. a replay loop over per-segment
// buffers, like netsim.ReadPcap's) should enable it; a capture loop
// that recycles read buffers must leave it off or rent arena chunks
// itself. Must be called before the first HandleBatch.
func (d *Dispatcher) SetZeroCopy(v bool) { d.zeroCopy = v }

// adopt makes seg safe to enqueue: payloads the caller still owns are
// copied into an arena chunk (so later reuse of the caller's buffer
// cannot corrupt queued segments), unless the caller opted into
// zero-copy or the segment already owns its chunk.
func (d *Dispatcher) adopt(seg netsim.Segment) netsim.Segment {
	if seg.Owned() || d.zeroCopy || len(seg.Payload) == 0 {
		return seg
	}
	b := d.arena.Rent(len(seg.Payload))
	data := b.Data()[:len(seg.Payload)]
	copy(data, seg.Payload)
	seg.Payload = data
	seg.SetOwned(b)
	return seg
}

// takeSlab rents an empty slab from the recycled pool, allocating only
// while the pool is below its cap; at the cap it blocks until a worker
// returns one — backpressure instead of heap growth.
func (d *Dispatcher) takeSlab() []netsim.Segment {
	select {
	case s := <-d.slabs:
		return s
	default:
	}
	d.slabMu.Lock()
	if d.slabCount < d.slabMax {
		d.slabCount++
		d.slabMu.Unlock()
		return make([]netsim.Segment, 0, DefaultDispatchBatch)
	}
	d.slabMu.Unlock()
	return <-d.slabs
}

func (d *Dispatcher) putSlab(s []netsim.Segment) {
	select {
	case d.slabs <- s:
	default: // pool full (foreign slab): drop for the GC
	}
}

// HandleBatch routes a batch of captured segments (one segment is a
// one-element batch) to their flows' shards. Segments of one flow always
// land on the same shard, so per-flow stream order is preserved. The
// batch is partitioned into per-shard slabs (at most DefaultDispatchBatch
// segments each) and every slab is on its worker's channel when
// HandleBatch returns: channel operations amortize over whatever batch
// the caller built, and the dispatcher adds no hold time of its own.
//
// Unowned payloads are defensively copied into an arena chunk before
// enqueueing, so callers may reuse their read buffer between calls;
// arena-owned segments (Segment.SetOwned) and zero-copy dispatchers
// (SetZeroCopy) transfer the payload by reference.
//
// Unlike Engine.HandleSegment, HandleBatch is safe for concurrent use;
// segments of one flow keep their per-sender order relative to other
// HandleBatch/FlushAll calls, which is what a request-scoped ingest
// needs.
//
// After Close the batch is dropped (owned payloads released) instead of
// panicking — the benign outcome of the shutdown race a resident
// service's ingest connections run against Drain.
func (d *Dispatcher) HandleBatch(segs []netsim.Segment) {
	if len(segs) == 0 {
		return
	}
	n := uint32(len(d.workers))
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		for i := range segs {
			segs[i].ReleasePayload()
		}
		return
	}
	for _, seg := range segs {
		seg = d.adopt(seg)
		i := seg.Flow.Hash() % n
		slab := d.acc[i]
		if slab == nil {
			slab = d.takeSlab()
		}
		slab = append(slab, seg)
		if len(slab) >= DefaultDispatchBatch {
			d.workers[i].ch <- slab
			slab = nil
		}
		d.acc[i] = slab
	}
	for i, slab := range d.acc {
		if slab != nil {
			d.acc[i] = nil
			d.workers[i].ch <- slab
		}
	}
}

// PipelineObserver aggregates race-safe views over a dispatcher's
// worker shards: scan counters folded in at batch flushes and
// flow-lifecycle stats published at flushes and segment intervals.
// Counters and FlowStats may be called from any goroutine at any time
// — while the pipeline is ingesting, and after Close (when they report
// the final tallies). This is the scrape surface a resident service
// exposes on /metrics.
type PipelineObserver struct {
	scan []*metrics.Atomic
	flow []*netsim.AtomicStats
}

// Observe attaches (or returns the already-attached) observer for this
// dispatcher — the dispatcher's one instrumentation path. It must be
// called before the first HandleBatch, so the attachment is published
// to the workers by the first slab send. Counters never change the
// scan path; after Close the observer reports the final tallies.
func (d *Dispatcher) Observe() *PipelineObserver {
	if d.obs == nil {
		o := &PipelineObserver{
			scan: make([]*metrics.Atomic, len(d.workers)),
			flow: make([]*netsim.AtomicStats, len(d.workers)),
		}
		for i, w := range d.workers {
			o.scan[i] = &metrics.Atomic{}
			o.flow[i] = &netsim.AtomicStats{}
			w.sh.SetObserver(o.scan[i], o.flow[i])
		}
		d.obs = o
	}
	return d.obs
}

// Counters returns the merged scan counters published so far (they lag
// the hot path by at most one unflushed batch per shard).
func (o *PipelineObserver) Counters() vpatch.Counters {
	var c vpatch.Counters
	for _, a := range o.scan {
		snap := a.Snapshot()
		c.Add(&snap)
	}
	return c
}

// FlowStats returns the merged flow-lifecycle stats published so far.
func (o *PipelineObserver) FlowStats() netsim.Stats {
	var st netsim.Stats
	for _, f := range o.flow {
		st.Add(f.Load())
	}
	return st
}

// FlushAll makes every worker scan its shard's pending group batches
// now — after the slabs already queued to it — and waits until all have
// done so, so a caller sees every alert of what it sent without waiting
// up to MaxAlertDelay. The dispatcher itself holds nothing to flush.
// Safe to call concurrently with HandleBatch (from any goroutine) and
// with Close; after Close it is a no-op.
func (d *Dispatcher) FlushAll() { d.broadcast(control{}) }

// Swap moves every shard onto engine e — a rule reload under live
// traffic — and delivers later alerts to emit (same contract as
// NewBatchDispatcher's sink). It is ordered like FlushAll: each worker
// first handles the slabs queued before the call and flushes its shard
// on the old engine, delivering those alerts to the old sink, then
// rebinds; slabs sent after Swap returns are scanned by e. The flow
// plane stays: reassemblers, flow tables, tombstones, quarantine, stream
// offsets, carries and verifier budgets (see Shard.rebind for what each
// flow keeps). Returns once every worker has rebound; after Close it is
// a no-op.
func (d *Dispatcher) Swap(e *Engine, emit func([]Alert)) {
	if emit == nil {
		panic("ids: nil alert sink")
	}
	c := control{eng: e, sink: emit}
	if e.rules != nil {
		c.sids = e.rules.SIDIndex()
	}
	d.broadcast(c)
}

// control is one request on the workers' control channel: flush the
// shard after the slabs queued before it and, when eng is set, rebind
// it to eng with alerts going to sink from then on.
type control struct {
	eng  *Engine
	sids map[int64][]int32 // eng's rules by sid (rule engines only)
	sink func([]Alert)
	done chan struct{}
}

// broadcast sends c to every worker and waits until all have carried it
// out. Holding mu orders it against HandleBatch: every slab sent before
// is already on the workers' channels, and none is sent until it returns.
func (d *Dispatcher) broadcast(c control) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	dones := make([]chan struct{}, len(d.workers))
	for i, w := range d.workers {
		c.done = make(chan struct{})
		dones[i] = c.done
		w.ctl <- c
	}
	for _, done := range dones {
		<-done
	}
}

// Close drains every worker (queued slabs are handled and partial
// group batches scanned, so all pending alerts surface), stops the
// goroutines, and returns the per-shard lifecycle stats merged. Close
// is safe to call from any goroutine and any number of times (every
// call waits for the drain and returns the same merged stats); a
// HandleBatch after it drops its batch.
func (d *Dispatcher) Close() netsim.Stats {
	d.closeOnce.Do(func() {
		d.mu.Lock()
		d.closed = true
		for _, w := range d.workers {
			close(w.ch)
		}
		d.mu.Unlock()
	})
	d.wg.Wait()
	var st netsim.Stats
	for _, w := range d.workers {
		st.Add(w.sh.Stats())
	}
	return st
}

// Package netsim is the network substrate of the reproduction: the
// paper's system model assumes the matcher runs inside a NIDS over "the
// reassembled protocol stream of the packets on the monitored network".
// This package provides that pipeline end to end on synthetic traffic:
// packetizing byte streams into TCP-like segments across interleaved
// flows, writing/reading libpcap files, and reassembling per-flow
// payload streams that feed the matchers (via vpatch.StreamScanner).
//
// The segment model is deliberately minimal — five-tuple, sequence
// number, payload, FIN/RST flags — because the matching algorithms only
// care about the reassembled payload order; IP/TCP header parsing
// fidelity is out of scope.
//
// # Flow lifecycle and memory bounds
//
// Real traffic is not polite: flows end (FIN/RST), packets go missing
// forever, and attackers can deliberately open holes that would buffer
// unbounded out-of-order data. The Reassembler therefore manages
// connection lifecycle explicitly:
//
//   - Teardown: a FIN segment marks the end of the stream; once every
//     byte up to the FIN has been delivered the flow is closed. RST
//     closes immediately, dropping buffered data. Closed flows keep a
//     cheap tombstone — a pointer-free entry in a close-ordered queue
//     plus an index slot, two dozen bytes the collector never scans
//     (tombs.go) — so late retransmits are dropped instead of being
//     misread as a new stream.
//   - Eviction: SetLimits arms a hard cap on tracked flows and an idle
//     timeout driven by capture timestamps (an LRU list orders live
//     flows by last activity, the tombstone queue closed ones by
//     teardown time). Evicting an open flow drops its buffered bytes
//     and notifies the OnClose hook. Segments that carry no timestamp
//     (TsMicros 0) are stamped with a monotonic arrival clock, so
//     timeouts still run for senders that do not stamp.
//   - Pending budgets: out-of-order bytes are bounded per flow and
//     globally. The drop policy is explicit: for a live (delivering)
//     stream the per-flow budget keeps the bytes nearest the
//     reassembly point (segments furthest from the next expected byte
//     are dropped first, which may be the arriving segment itself) and
//     never splices a gap; the global budget drops the arriving
//     segment. Every dropped byte is counted in Stats.BytesDropped.
//     A flow that fills its budget before delivering anything joined
//     mid-stream (capture started mid-flow, or it was evicted and came
//     back) — it re-synchronizes instead, resuming at its nearest
//     buffered bytes (Stats.GapSkips), so evicted flows keep being
//     scanned rather than black-holing.
//
// Buffered out-of-order payloads are copied into reassembler-owned
// memory (recycled on drain), so callers may reuse their read buffer
// between Add calls — the pcap replay loop does. Sequence-number
// comparisons are wraparound-safe (serial arithmetic, RFC 1982 style),
// so streams longer than 4 GiB reassemble correctly as long as the
// reordering window stays under 2 GiB.
package netsim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"vpatch/internal/arena"
	"vpatch/internal/metrics"
)

// FlowKey identifies one unidirectional flow (the reassembly unit).
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d", ipString(k.SrcIP), k.SrcPort, ipString(k.DstIP), k.DstPort)
}

// Hash returns a well-mixed hash of the flow key (FNV-1a over its
// fields) — the partition function multi-shard pipelines use to assign
// flows to workers. All segments of one flow hash identically.
func (k FlowKey) Hash() uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, w := range [3]uint32{k.SrcIP, k.DstIP, uint32(k.SrcPort)<<16 | uint32(k.DstPort)} {
		for shift := 0; shift < 32; shift += 8 {
			h ^= w >> shift & 0xFF
			h *= prime32
		}
	}
	return h
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip>>24, ip>>16&0xFF, ip>>8&0xFF, ip&0xFF)
}

// TCP-style segment flags (bit positions match the TCP header's flag
// byte, so pcap round-trips preserve them).
const (
	// FlagFIN marks the sender's last segment: the stream ends at
	// Seq+len(Payload).
	FlagFIN uint8 = 0x01
	// FlagRST aborts the connection immediately; buffered out-of-order
	// data is discarded.
	FlagRST uint8 = 0x04
)

// Segment is one TCP-like segment of a flow.
type Segment struct {
	Flow FlowKey
	// Seq is the byte offset of Payload within the flow's stream
	// (wraps modulo 2^32 on long streams).
	Seq uint32
	// Payload is the application bytes carried by this segment.
	Payload []byte
	// TsMicros is the capture timestamp in microseconds; 0 means
	// unstamped (the reassembler substitutes its arrival clock).
	TsMicros uint64
	// Flags carries the TCP-style connection-lifecycle flags
	// (FlagFIN, FlagRST).
	Flags uint8

	// own, when set, is the arena chunk backing Payload: the segment
	// owns one reference and whoever consumes the payload releases it
	// (see SetOwned/ReleasePayload). nil for plain heap payloads.
	own *arena.Buf
}

// SetOwned marks Payload as backed by the arena chunk b, transferring
// one reference into the segment. Downstream consumers (the dispatch
// pipeline) release it once the payload has been absorbed, recycling
// the chunk — the zero-copy capture→dispatcher→reassembler handoff.
func (s *Segment) SetOwned(b *arena.Buf) { s.own = b }

// Owned reports whether the segment carries an arena-backed payload
// with a release hook, i.e. whether ownership (not just a view) of the
// buffer transfers with the segment.
func (s *Segment) Owned() bool { return s.own != nil }

// ReleasePayload drops the segment's payload reference: for owned
// segments the arena chunk is released (and Payload nilled — the bytes
// may be recycled immediately); for unowned segments it is a no-op.
// Each owned segment must be released exactly once.
func (s *Segment) ReleasePayload() {
	if s.own == nil {
		return
	}
	b := s.own
	s.own = nil
	s.Payload = nil
	b.Release()
}

// PacketizeOptions controls stream segmentation.
type PacketizeOptions struct {
	// MTU bounds the payload bytes per segment (default 1460, Ethernet
	// TCP MSS).
	MTU int
	// Jitter reorders segments within a window of this many packets
	// (0 = in-order). Reassembly must restore stream order.
	Jitter int
	// DuplicateFrac duplicates this fraction of segments (retransmits).
	DuplicateFrac float64
	// OverlapFrac makes this fraction of segments partially re-send
	// already-sent bytes (the segment's range is extended backward), as
	// overlapping TCP retransmissions do. Reassembly must deliver each
	// stream byte exactly once.
	OverlapFrac float64
	// FIN marks each flow's final segment with FlagFIN, so reassembly
	// exercises connection teardown.
	FIN bool
	// Seed drives segmentation sizes, reordering, duplication and
	// overlap.
	Seed int64
}

// Packetize splits each stream into segments for its flow and interleaves
// all flows into one capture-ordered sequence, optionally with
// reordering, duplicates and overlapping retransmits. streams[i] becomes
// flows[i]'s payload.
func Packetize(streams map[FlowKey][]byte, opt PacketizeOptions) []Segment {
	mtu := opt.MTU
	if mtu <= 0 {
		mtu = 1460
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Split each stream into its segments.
	perFlow := make(map[FlowKey][]Segment)
	keys := make([]FlowKey, 0, len(streams))
	for k := range streams {
		keys = append(keys, k)
	}
	// Deterministic flow order for the interleaver.
	sortKeys(keys)
	nonEmpty := 0
	for _, k := range keys {
		data := streams[k]
		var segs []Segment
		for pos := 0; pos < len(data); {
			n := 1 + rng.Intn(mtu)
			if pos+n > len(data) {
				n = len(data) - pos
			}
			start := pos
			if opt.OverlapFrac > 0 && pos > 0 && rng.Float64() < opt.OverlapFrac {
				// Extend the segment backward over already-sent bytes,
				// keeping the payload within the MTU.
				maxBack := pos
				if maxBack > mtu-n {
					maxBack = mtu - n
				}
				if maxBack > 0 {
					start = pos - (1 + rng.Intn(maxBack))
				}
			}
			segs = append(segs, Segment{Flow: k, Seq: uint32(start), Payload: data[start : pos+n]})
			pos += n
		}
		if opt.FIN {
			if len(segs) == 0 {
				segs = append(segs, Segment{Flow: k, Flags: FlagFIN})
			} else {
				segs[len(segs)-1].Flags |= FlagFIN
			}
		}
		perFlow[k] = segs
		if len(segs) > 0 {
			nonEmpty++
		}
	}

	// Interleave: repeatedly pick a random flow with segments left.
	var out []Segment
	remaining := nonEmpty
	idx := make(map[FlowKey]int, len(keys))
	ts := uint64(1_000_000)
	for remaining > 0 {
		k := keys[rng.Intn(len(keys))]
		i := idx[k]
		segs := perFlow[k]
		if i >= len(segs) {
			continue
		}
		seg := segs[i]
		seg.TsMicros = ts
		ts += uint64(1 + rng.Intn(200))
		out = append(out, seg)
		idx[k] = i + 1
		if idx[k] == len(segs) {
			remaining--
		}
		if opt.DuplicateFrac > 0 && rng.Float64() < opt.DuplicateFrac {
			dup := seg
			dup.TsMicros = ts
			ts += 7
			out = append(out, dup)
		}
	}

	// Bounded reordering.
	if opt.Jitter > 0 {
		for i := range out {
			j := i + rng.Intn(opt.Jitter+1)
			if j < len(out) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func sortKeys(keys []FlowKey) {
	less := func(a, b FlowKey) bool {
		if a.SrcIP != b.SrcIP {
			return a.SrcIP < b.SrcIP
		}
		if a.DstIP != b.DstIP {
			return a.DstIP < b.DstIP
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		return a.DstPort < b.DstPort
	}
	// Insertion sort: key counts are small (flows per capture).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// seqBefore reports a < b in serial (wraparound-safe) sequence
// arithmetic: valid while |a-b| < 2^31.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// Limits bounds the reassembler's memory. The zero value means
// unlimited everywhere — the polite-traffic mode small tests use;
// production pipelines should set every field.
type Limits struct {
	// MaxFlows caps tracked flows (including closed flows awaiting
	// tombstone expiry). When a new flow would exceed the cap the
	// least-recently-active flow is evicted. 0 = unlimited.
	MaxFlows int
	// IdleTimeoutMicros evicts flows with no activity for this many
	// capture-clock microseconds (the clock is the maximum segment
	// timestamp seen). 0 = never.
	IdleTimeoutMicros uint64
	// FlowPendingBytes caps buffered out-of-order bytes per flow. For a
	// flow that has already delivered in-order data, exceeding the
	// budget drops pending segments furthest from the next expected
	// byte first (the arriving segment itself, if it is the furthest) —
	// a live stream's gap is never spliced. A flow that fills the
	// budget before delivering anything joined mid-stream (capture
	// began mid-flow, or it was evicted and came back): it
	// re-synchronizes instead, delivering buffered runs nearest-first
	// and skipping the unfillable gaps (Stats.GapSkips counts these).
	// 0 = unlimited.
	FlowPendingBytes int
	// TotalPendingBytes caps buffered out-of-order bytes across all
	// flows; the arriving segment is dropped when it would exceed the
	// cap. 0 = unlimited.
	TotalPendingBytes int
}

// Stats reports the reassembler's lifecycle and drop counters.
type Stats struct {
	// Flows is the number of currently tracked flows, including closed
	// flows held as tombstones until they expire.
	Flows int
	// PeakFlows is the maximum number of simultaneously tracked flows.
	PeakFlows int
	// FlowsClosed counts normal teardowns (FIN completed or RST).
	FlowsClosed uint64
	// FlowsEvicted counts open flows dropped by the flow cap or idle
	// timeout.
	FlowsEvicted uint64
	// BytesDropped counts payload bytes discarded: out-of-order bytes
	// over budget, buffered bytes of evicted or reset flows, and
	// segments arriving after teardown.
	BytesDropped uint64
	// GapSkips counts sequence gaps abandoned by mid-stream
	// resynchronization (a flow that filled its reorder budget before
	// delivering any byte resumes at its nearest buffered data).
	GapSkips uint64
	// PendingBytes is the number of currently buffered out-of-order
	// bytes across all flows.
	PendingBytes int
}

// Add accumulates o into s; Flows/PendingBytes/PeakFlows sum (the
// shards of a partitioned pipeline hold disjoint flows).
func (s *Stats) Add(o Stats) {
	s.Flows += o.Flows
	s.PeakFlows += o.PeakFlows
	s.FlowsClosed += o.FlowsClosed
	s.FlowsEvicted += o.FlowsEvicted
	s.BytesDropped += o.BytesDropped
	s.GapSkips += o.GapSkips
	s.PendingBytes += o.PendingBytes
}

// AtomicStats is a concurrency-safe publication slot for one
// reassembler's Stats: the owning goroutine Stores its current stats at
// convenient points (flushes, batch boundaries) and any goroutine may
// Load the last published value — the mechanism resident services use
// to scrape flow-lifecycle gauges while the pipeline is running. Store
// and Load are field-wise atomic: a Load never tears a counter, though
// it may mix fields from two adjacent Stores (all counters are
// monotonic except the Flows/PendingBytes gauges, so scrape consumers
// still never observe a counter going backwards from one slot).
type AtomicStats struct {
	flows        atomic.Int64
	peakFlows    atomic.Int64
	flowsClosed  atomic.Uint64
	flowsEvicted atomic.Uint64
	bytesDropped atomic.Uint64
	gapSkips     atomic.Uint64
	pendingBytes atomic.Int64
}

// Store publishes s as the slot's current value.
func (a *AtomicStats) Store(s Stats) {
	a.flows.Store(int64(s.Flows))
	a.peakFlows.Store(int64(s.PeakFlows))
	a.flowsClosed.Store(s.FlowsClosed)
	a.flowsEvicted.Store(s.FlowsEvicted)
	a.bytesDropped.Store(s.BytesDropped)
	a.gapSkips.Store(s.GapSkips)
	a.pendingBytes.Store(int64(s.PendingBytes))
}

// Load returns the last published stats.
func (a *AtomicStats) Load() Stats {
	return Stats{
		Flows:        int(a.flows.Load()),
		PeakFlows:    int(a.peakFlows.Load()),
		FlowsClosed:  a.flowsClosed.Load(),
		FlowsEvicted: a.flowsEvicted.Load(),
		BytesDropped: a.bytesDropped.Load(),
		GapSkips:     a.gapSkips.Load(),
		PendingBytes: int(a.pendingBytes.Load()),
	}
}

// MergeInto folds the lifecycle counters into a metrics.Counters, so
// pipeline drivers report eviction/drop/peak figures alongside the
// matcher counters.
func (s Stats) MergeInto(c *metrics.Counters) {
	c.FlowsEvicted += s.FlowsEvicted
	c.BytesDropped += s.BytesDropped
	if p := uint64(s.PeakFlows); p > c.PeakFlows {
		c.PeakFlows = p
	}
}

// pseg is one buffered out-of-order segment; data is reassembler-owned
// (an arena chunk when the reassembler has one, see SetArena).
type pseg struct {
	seq  uint32
	data []byte
	buf  *arena.Buf
}

// flowState is the per-flow reassembly state of a live flow. States
// are linked into an LRU list ordered by last activity and recycled
// through a free list when the flow closes or is evicted.
type flowState struct {
	key  FlowKey
	next uint32 // next expected stream offset
	// pending holds out-of-order segments sorted by wrap-safe distance
	// from next (all are ahead of next by < 2^31).
	pending      []pseg
	pendingBytes int
	lastTs       uint64
	finSeq       uint32 // end-of-stream offset, valid when finSeen
	finSeen      bool
	// delivered records whether any in-order byte ever reached the
	// sink: it separates a jittered young flow from a mid-stream joiner
	// when the reorder budget fills.
	delivered bool

	lruPrev, lruNext *flowState
}

// Reassembler restores per-flow payload streams from segments arriving
// in capture order, tolerating reordering, duplicates and overlaps.
// Contiguous bytes are delivered to the sink exactly once, in stream
// order — the contract vpatch.StreamScanner needs. Payload slices passed
// to the sink are only valid during the call (buffered segments live in
// recycled reassembler-owned memory).
//
// A Reassembler is single-goroutine; partition flows across several
// reassemblers for multi-core pipelines.
type Reassembler struct {
	sink    func(FlowKey, []byte)
	onClose func(FlowKey, bool)
	flows   map[FlowKey]*flowState // live flows
	limits  Limits

	// LRU list of live flow states: lruHead is least recently active.
	lruHead, lruTail *flowState
	// freeStates recycles the states of closed and evicted flows, so
	// steady flow churn allocates nothing.
	freeStates []*flowState

	// tombs remembers closed flows until they expire (tombs.go): it
	// answers "was this flow torn down?" for late retransmits and orders
	// the keys by teardown time for expiry and cap eviction.
	tombs tombSet

	now          uint64    // capture clock: max timestamp seen
	arrival0     time.Time // origin of the arrival clock (unstamped segments)
	totalPending int
	free         [][]byte     // recycled pending buffers (legacy, arena unset)
	arena        *arena.Local // when set, pending copies rent pooled chunks

	peakFlows    int
	flowsClosed  uint64
	flowsEvicted uint64
	bytesDropped uint64
	gapSkips     uint64
}

// maxFreeBufs bounds the recycled pending-buffer pool; maxFreeStates the
// recycled flow states (an eviction burst frees more than churn reuses).
const (
	maxFreeBufs   = 64
	maxFreeStates = 256
)

// NewReassembler creates a reassembler delivering contiguous payload
// slices per flow to sink. It starts unlimited (see SetLimits) with no
// close hook (see OnClose).
func NewReassembler(sink func(FlowKey, []byte)) *Reassembler {
	return &Reassembler{sink: sink, flows: make(map[FlowKey]*flowState)}
}

// SetLimits arms the reassembler's memory bounds. It may be called at
// any time; tightened limits take effect on subsequent Adds.
func (r *Reassembler) SetLimits(l Limits) { r.limits = l }

// SetArena rebases the reassembler's out-of-order buffer recycling onto
// an arena: pending copies rent pooled chunks (returned to the shared
// pool on drain) instead of retaining private slabs. The Local must
// belong to the reassembler's goroutine; call before the first Add.
func (r *Reassembler) SetArena(l *arena.Local) { r.arena = l }

// OnClose registers a hook called whenever a flow stops being tracked
// while holding reassembly state: evicted reports true when the flow
// was dropped by the flow cap or idle timeout (the stream may be
// incomplete), false on normal FIN/RST teardown. Tombstone expiry of an
// already-closed flow does not call the hook again.
func (r *Reassembler) OnClose(fn func(k FlowKey, evicted bool)) { r.onClose = fn }

// arrivalMicros is the fallback clock for unstamped segments:
// microseconds of monotonic time since the first of them arrived (never
// 0, which means unstamped).
func (r *Reassembler) arrivalMicros() uint64 {
	if r.arrival0.IsZero() {
		r.arrival0 = time.Now()
	}
	return uint64(time.Since(r.arrival0)/time.Microsecond) + 1
}

// Add processes one captured segment.
func (r *Reassembler) Add(seg Segment) {
	ts := seg.TsMicros
	if ts == 0 {
		ts = r.arrivalMicros()
	}
	if ts > r.now {
		r.now = ts
	}
	st := r.flows[seg.Flow]
	if st == nil {
		// Expire first: a tombstone whose time has come must not claim
		// the segment that re-opens its key.
		r.expireIdle()
		if r.tombs.has(seg.Flow) {
			// Late retransmit after teardown: the stream already ended.
			// The tombstone is not refreshed — a retransmit flood must
			// not keep tombstones alive at the expense of live flows; it
			// expires on its teardown-time clock.
			r.bytesDropped += uint64(len(seg.Payload))
			return
		}
		if seg.Flags&FlagRST != 0 || len(seg.Payload) == 0 {
			// Control-only segment (RST, bare FIN, keepalive) for an
			// untracked flow: there is nothing to reassemble or tear
			// down, and creating state here would let spoofed control
			// floods churn live flows out of a capped table — so no
			// state, like any stateful middlebox dropping
			// out-of-state control packets.
			return
		}
		if r.limits.MaxFlows > 0 {
			for r.Flows() >= r.limits.MaxFlows && r.evictOldest() {
			}
		}
		// Streams start at Seq 0 in this model; a nonzero first arrival
		// is an out-of-order segment ahead of the origin.
		st = r.newState(seg.Flow)
		r.flows[seg.Flow] = st
		r.lruPush(st)
		if n := r.Flows(); n > r.peakFlows {
			r.peakFlows = n
		}
	} else {
		st.lastTs = r.now
		r.lruTouch(st)
		r.expireIdle()
	}
	if seg.Flags&FlagRST != 0 {
		r.bytesDropped += uint64(len(seg.Payload))
		r.closeFlow(st)
		return
	}

	if len(seg.Payload) > 0 {
		switch d := int32(seg.Seq - st.next); {
		case d == 0:
			r.deliver(st, seg.Payload)
			st.next += uint32(len(seg.Payload))
			r.drain(st)
		case d > 0:
			r.buffer(st, seg.Seq, seg.Payload)
		default:
			// seg.Seq < next: duplicate or overlap of delivered data.
			end := seg.Seq + uint32(len(seg.Payload))
			if seqBefore(st.next, end) {
				// Partial overlap: deliver only the new tail.
				r.deliver(st, seg.Payload[st.next-seg.Seq:])
				st.next = end
				r.drain(st)
			}
		}
	}

	if seg.Flags&FlagFIN != 0 {
		st.finSeen = true
		st.finSeq = seg.Seq + uint32(len(seg.Payload))
	}
	if st.finSeen && !seqBefore(st.next, st.finSeq) {
		// Every byte up to the FIN has been delivered: normal teardown.
		r.closeFlow(st)
	}
}

// buffer stores one out-of-order segment in reassembler-owned memory,
// honouring the pending-byte budgets. On an exact duplicate of a
// buffered segment the longer payload wins; partial overlaps between
// pending segments are resolved at drain time (only novel suffixes are
// delivered).
func (r *Reassembler) buffer(st *flowState, seq uint32, payload []byte) {
	n := len(payload)

	// Dedup BEFORE budget enforcement: a retransmit of an
	// already-buffered segment is (mostly) a no-op and must not push
	// genuinely novel pending data out of the budget.
	i := len(st.pending)
	for i > 0 && seqBefore(seq, st.pending[i-1].seq) {
		i--
	}
	if i > 0 && st.pending[i-1].seq == seq {
		prev := &st.pending[i-1]
		delta := n - len(prev.data)
		if delta <= 0 {
			return // nothing new
		}
		// The replacement only grows the budget by its novel tail; if
		// that does not fit, keep the buffered original. Only the
		// novel tail is counted as dropped — the rest of the payload
		// stays buffered and will still be delivered.
		if lim := r.limits.TotalPendingBytes; lim > 0 && r.totalPending+delta > lim {
			r.bytesDropped += uint64(delta)
			return
		}
		if lim := r.limits.FlowPendingBytes; lim > 0 && st.pendingBytes+delta > lim {
			r.bytesDropped += uint64(delta)
			return
		}
		r.recycle(prev.data, prev.buf)
		prev.data, prev.buf = r.copyBuf(payload)
		st.pendingBytes += delta
		r.totalPending += delta
		return
	}

	if lim := r.limits.TotalPendingBytes; lim > 0 && r.totalPending+n > lim {
		r.bytesDropped += uint64(n)
		return
	}
	if lim := r.limits.FlowPendingBytes; lim > 0 && st.pendingBytes+n > lim {
		if n <= lim {
			// Keep the bytes nearest the reassembly point: drop
			// buffered segments further out than the arrival until it
			// fits. (When the arrival alone exceeds the budget nothing
			// is evicted — trading nearer data for a segment that can
			// never fit would only lose more.)
			for st.pendingBytes+n > lim && len(st.pending) > 0 {
				last := &st.pending[len(st.pending)-1]
				if !seqBefore(seq, last.seq) {
					break // the arrival is the furthest out
				}
				r.dropPending(st, len(st.pending)-1)
			}
		}
		switch {
		case st.pendingBytes+n <= lim:
			// Fits after the tail drops.
		case st.delivered:
			// A live stream's gap is never spliced: over budget, the
			// arrival is dropped — the explicit drop policy.
			r.bytesDropped += uint64(n)
			return
		default:
			// A flow that filled its reorder budget before delivering
			// a single byte is not merely jittered — it joined
			// mid-stream (the capture began mid-flow, or the flow was
			// evicted under pressure and came back), and the bytes
			// before its buffered data will never arrive.
			// Re-synchronize the way production stream engines do on
			// overflow: deliver the buffered runs nearest-first,
			// abandoning the unfillable gaps, until the arrival fits.
			for st.pendingBytes+n > lim && len(st.pending) > 0 && seqBefore(st.pending[0].seq, seq) {
				r.resyncGap(st)
			}
			if st.pendingBytes+n > lim && seqBefore(st.next, seq) {
				// Still over, with a gap left before the arrival:
				// anything nearer was just delivered, so the arrival
				// is next and can never be buffered whole. Skip
				// forward to it. (Never move next backward — resync
				// may already have delivered past the arrival's start,
				// and those bytes must not reach the sink twice; the
				// overlap branch below slices them off.)
				r.gapSkips++
				st.next = seq
			}
			if d := int32(seq - st.next); d <= 0 {
				// Resync reached (or passed) the arrival: deliver its
				// novel tail now instead of buffering.
				if end := seq + uint32(n); seqBefore(st.next, end) {
					r.deliver(st, payload[st.next-seq:])
					st.next = end
					r.drain(st)
				}
				return
			}
		}
	}

	// Sorted insert by distance from next (recomputed: budget handling
	// above may have dropped or delivered pending segments).
	i = len(st.pending)
	for i > 0 && seqBefore(seq, st.pending[i-1].seq) {
		i--
	}
	st.pending = append(st.pending, pseg{})
	copy(st.pending[i+1:], st.pending[i:])
	data, buf := r.copyBuf(payload)
	st.pending[i] = pseg{seq: seq, data: data, buf: buf}
	st.pendingBytes += n
	r.totalPending += n
}

// deliver hands contiguous stream bytes to the sink, marking the flow
// as having produced in-order data.
func (r *Reassembler) deliver(st *flowState, p []byte) {
	st.delivered = true
	r.sink(st.key, p)
}

// resyncGap abandons the unfillable sequence gap before the nearest
// buffered segment: the stream resumes there and the now-contiguous run
// is delivered. Bytes in the gap were never received; matches spanning
// it are lost — the price of bounded memory, and the same call
// production stream reassemblers make on reorder-buffer overflow.
func (r *Reassembler) resyncGap(st *flowState) {
	if len(st.pending) == 0 {
		return
	}
	r.gapSkips++
	st.next = st.pending[0].seq
	r.drain(st)
}

// drain delivers every buffered segment that has become contiguous,
// including segments that merely overlap the drain point (only their
// novel suffix is delivered; fully subsumed segments are discarded).
func (r *Reassembler) drain(st *flowState) {
	i := 0
	for i < len(st.pending) {
		p := &st.pending[i]
		if seqBefore(st.next, p.seq) {
			break // gap before the nearest pending segment
		}
		end := p.seq + uint32(len(p.data))
		if seqBefore(st.next, end) {
			r.deliver(st, p.data[st.next-p.seq:])
			st.next = end
		}
		st.pendingBytes -= len(p.data)
		r.totalPending -= len(p.data)
		r.recycle(p.data, p.buf)
		p.data, p.buf = nil, nil
		i++
	}
	if i > 0 {
		st.pending = st.pending[:copy(st.pending, st.pending[i:])]
	}
}

// dropPending discards the buffered segment at index i, counting its
// bytes as dropped.
func (r *Reassembler) dropPending(st *flowState, i int) {
	p := st.pending[i]
	st.pendingBytes -= len(p.data)
	r.totalPending -= len(p.data)
	r.bytesDropped += uint64(len(p.data))
	r.recycle(p.data, p.buf)
	st.pending = append(st.pending[:i], st.pending[i+1:]...)
}

// newState returns a zeroed live-flow state for k, recycled when one
// is free.
func (r *Reassembler) newState(k FlowKey) *flowState {
	var st *flowState
	if n := len(r.freeStates); n > 0 {
		st = r.freeStates[n-1]
		r.freeStates = r.freeStates[:n-1]
	} else {
		st = &flowState{}
	}
	st.key, st.lastTs = k, r.now
	return st
}

// forget stops tracking a live flow: its buffered segments are dropped
// (and counted), it leaves the table and the LRU, and its state is
// recycled, keeping the pending slice's capacity.
func (r *Reassembler) forget(st *flowState) {
	for i := range st.pending {
		p := &st.pending[i]
		r.bytesDropped += uint64(len(p.data))
		r.totalPending -= len(p.data)
		r.recycle(p.data, p.buf)
	}
	clear(st.pending)
	r.lruRemove(st)
	delete(r.flows, st.key)
	if len(r.freeStates) < maxFreeStates {
		*st = flowState{pending: st.pending[:0]}
		r.freeStates = append(r.freeStates, st)
	}
}

// closeFlow performs normal teardown: buffered data past the end of the
// stream is discarded and the flow leaves the live table for the
// tombstone set, so late retransmits are dropped until the tombstone
// expires like any idle flow.
func (r *Reassembler) closeFlow(st *flowState) {
	k := st.key
	r.tombs.push(k, st.lastTs)
	r.forget(st)
	r.flowsClosed++
	if r.onClose != nil {
		r.onClose(k, false)
	}
}

// evict removes an open flow outright — the cap/idle-timeout path — and
// fires the hook.
func (r *Reassembler) evict(st *flowState) {
	k := st.key
	r.forget(st)
	r.flowsEvicted++
	if r.onClose != nil {
		r.onClose(k, true)
	}
}

// evictOldest makes room under the flow cap by dropping whichever is
// older on the capture clock, the least recently active live flow or the
// oldest tombstone (the tombstone on a tie: it holds no stream state).
// It reports false when nothing is tracked.
func (r *Reassembler) evictOldest() bool {
	switch {
	case r.tombs.len() > 0 && (r.lruHead == nil || r.tombs.front().ts() <= r.lruHead.lastTs):
		r.tombs.pop() // tombstones expire silently: the hook fired at teardown
	case r.lruHead != nil:
		r.evict(r.lruHead)
	default:
		return false
	}
	return true
}

// expireIdle evicts flows and expires tombstones whose last activity is
// older than the idle timeout on the capture clock.
func (r *Reassembler) expireIdle() {
	lim := r.limits.IdleTimeoutMicros
	if lim == 0 {
		return
	}
	for r.lruHead != nil && r.now-r.lruHead.lastTs > lim {
		r.evict(r.lruHead)
	}
	for r.tombs.len() > 0 && r.now-r.tombs.front().ts() > lim {
		r.tombs.pop()
	}
}

// copyBuf copies payload into reassembler-owned memory: an arena chunk
// when SetArena was called (returned alongside the data for release on
// drain), else a buffer from the legacy private free list.
func (r *Reassembler) copyBuf(payload []byte) ([]byte, *arena.Buf) {
	if r.arena != nil {
		b := r.arena.Rent(len(payload))
		data := b.Data()[:len(payload)]
		copy(data, payload)
		return data, b
	}
	var buf []byte
	if k := len(r.free); k > 0 {
		buf = r.free[k-1]
		r.free = r.free[:k-1]
	}
	return append(buf[:0], payload...), nil
}

// recycle returns a pending buffer: arena chunks go back to the pool,
// legacy buffers to the private free list.
func (r *Reassembler) recycle(data []byte, b *arena.Buf) {
	if b != nil {
		if r.arena != nil {
			r.arena.Release(b)
		} else {
			b.Release()
		}
		return
	}
	if data != nil && len(r.free) < maxFreeBufs {
		r.free = append(r.free, data[:0])
	}
}

// lruPush appends st as the most recently active flow.
func (r *Reassembler) lruPush(st *flowState) {
	st.lruPrev = r.lruTail
	st.lruNext = nil
	if r.lruTail != nil {
		r.lruTail.lruNext = st
	} else {
		r.lruHead = st
	}
	r.lruTail = st
}

func (r *Reassembler) lruRemove(st *flowState) {
	if st.lruPrev != nil {
		st.lruPrev.lruNext = st.lruNext
	} else {
		r.lruHead = st.lruNext
	}
	if st.lruNext != nil {
		st.lruNext.lruPrev = st.lruPrev
	} else {
		r.lruTail = st.lruPrev
	}
	st.lruPrev, st.lruNext = nil, nil
}

func (r *Reassembler) lruTouch(st *flowState) {
	if r.lruTail == st {
		return
	}
	r.lruRemove(st)
	r.lruPush(st)
}

// Stats returns the lifecycle and drop counters.
func (r *Reassembler) Stats() Stats {
	return Stats{
		Flows:        r.Flows(),
		PeakFlows:    r.peakFlows,
		FlowsClosed:  r.flowsClosed,
		FlowsEvicted: r.flowsEvicted,
		BytesDropped: r.bytesDropped,
		GapSkips:     r.gapSkips,
		PendingBytes: r.totalPending,
	}
}

// PendingBytes returns the number of buffered out-of-order bytes across
// all flows (diagnostic; nonzero after a capture usually means loss).
func (r *Reassembler) PendingBytes() int { return r.totalPending }

// Flows returns the number of flows tracked, including closed flows
// awaiting tombstone expiry.
func (r *Reassembler) Flows() int { return len(r.flows) + r.tombs.len() }

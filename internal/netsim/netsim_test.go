package netsim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vpatch/internal/metrics"
	"vpatch/internal/traffic"
)

func testFlows(n int, size int, seed int64) map[FlowKey][]byte {
	flows := make(map[FlowKey][]byte, n)
	for i := 0; i < n; i++ {
		key := FlowKey{
			SrcIP: 0x0A000001 + uint32(i), DstIP: 0xC0A80001,
			SrcPort: uint16(40000 + i), DstPort: 80,
		}
		flows[key] = traffic.Synthesize(traffic.ISCXDay2, size, seed+int64(i), nil)
	}
	return flows
}

// reassembleAll runs segments through a Reassembler and returns the
// per-flow byte streams.
func reassembleAll(segs []Segment) map[FlowKey][]byte {
	out := make(map[FlowKey][]byte)
	r := NewReassembler(func(k FlowKey, p []byte) {
		out[k] = append(out[k], p...)
	})
	for _, s := range segs {
		r.Add(s)
	}
	return out
}

func TestPacketizeCoversAllBytesInOrder(t *testing.T) {
	flows := testFlows(3, 8<<10, 1)
	segs := Packetize(flows, PacketizeOptions{Seed: 2})
	got := reassembleAll(segs)
	for k, want := range flows {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("flow %v: reassembly mismatch (%d vs %d bytes)", k, len(got[k]), len(want))
		}
	}
}

func TestPacketizeRespectsMTU(t *testing.T) {
	flows := testFlows(1, 32<<10, 3)
	segs := Packetize(flows, PacketizeOptions{MTU: 512, Seed: 1})
	for _, s := range segs {
		if len(s.Payload) > 512 {
			t.Fatalf("segment payload %d exceeds MTU", len(s.Payload))
		}
		if len(s.Payload) == 0 {
			t.Fatal("empty segment")
		}
	}
}

func TestPacketizeDeterministic(t *testing.T) {
	flows := testFlows(2, 4<<10, 5)
	a := Packetize(flows, PacketizeOptions{Seed: 7, Jitter: 4})
	b := Packetize(flows, PacketizeOptions{Seed: 7, Jitter: 4})
	if len(a) != len(b) {
		t.Fatal("same seed produced different segment counts")
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Flow != b[i].Flow {
			t.Fatal("same seed produced different segmentation")
		}
	}
}

func TestReassemblyUnderReorderingAndDuplicates(t *testing.T) {
	flows := testFlows(4, 16<<10, 9)
	segs := Packetize(flows, PacketizeOptions{
		MTU: 700, Jitter: 8, DuplicateFrac: 0.1, Seed: 11,
	})
	got := reassembleAll(segs)
	for k, want := range flows {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("flow %v: stream corrupted by reorder/dup handling", k)
		}
	}
}

func TestReassemblerOverlapTail(t *testing.T) {
	key := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	var out []byte
	r := NewReassembler(func(_ FlowKey, p []byte) { out = append(out, p...) })
	r.Add(Segment{Flow: key, Seq: 0, Payload: []byte("abcdef")})
	// Retransmit overlapping delivered data but extending beyond it.
	r.Add(Segment{Flow: key, Seq: 4, Payload: []byte("efGHI")})
	if string(out) != "abcdefGHI" {
		t.Fatalf("overlap handling produced %q", out)
	}
	// Full duplicate of delivered data: ignored.
	r.Add(Segment{Flow: key, Seq: 0, Payload: []byte("abc")})
	if string(out) != "abcdefGHI" {
		t.Fatalf("duplicate re-delivered: %q", out)
	}
}

func TestReassemblerDiagnostics(t *testing.T) {
	key := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	r := NewReassembler(func(FlowKey, []byte) {})
	r.Add(Segment{Flow: key, Seq: 100, Payload: []byte("hole")})
	if r.PendingBytes() != 4 {
		t.Fatalf("PendingBytes = %d", r.PendingBytes())
	}
	if r.Flows() != 1 {
		t.Fatalf("Flows = %d", r.Flows())
	}
}

// TestReassemblerCopiesBufferedSegments: a caller reusing its read
// buffer between Adds (every real pcap loop does) must not corrupt
// buffered out-of-order segments — the reassembler owns its pending
// memory.
func TestReassemblerCopiesBufferedSegments(t *testing.T) {
	key := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	var out []byte
	r := NewReassembler(func(_ FlowKey, p []byte) { out = append(out, p...) })
	buf := make([]byte, 4)
	copy(buf, "WXYZ")
	r.Add(Segment{Flow: key, Seq: 4, Payload: buf}) // buffered out of order
	copy(buf, "!!!!")                               // caller reuses its buffer
	r.Add(Segment{Flow: key, Seq: 0, Payload: []byte("abcd")})
	if string(out) != "abcdWXYZ" {
		t.Fatalf("buffer reuse corrupted pending data: %q", out)
	}
}

// TestDrainOverlappingPending: a buffered segment whose range overlaps
// the drain point (Seq < next < Seq+len) must still drain — only its
// novel suffix, exactly once.
func TestDrainOverlappingPending(t *testing.T) {
	key := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	var out []byte
	r := NewReassembler(func(_ FlowKey, p []byte) { out = append(out, p...) })
	r.Add(Segment{Flow: key, Seq: 2, Payload: []byte("cdef")}) // pending
	r.Add(Segment{Flow: key, Seq: 0, Payload: []byte("abcd")})
	if string(out) != "abcdef" {
		t.Fatalf("overlapping pending segment mis-drained: %q", out)
	}
	if r.PendingBytes() != 0 {
		t.Fatalf("PendingBytes leaked: %d", r.PendingBytes())
	}
	// A pending segment fully subsumed by the drain point is discarded.
	r.Add(Segment{Flow: key, Seq: 8, Payload: []byte("c")})    // pending
	r.Add(Segment{Flow: key, Seq: 6, Payload: []byte("abcd")}) // covers it
	if string(out) != "abcdefabcd" || r.PendingBytes() != 0 {
		t.Fatalf("subsumed pending segment mishandled: %q, pending %d", out, r.PendingBytes())
	}
}

// TestSeqWraparound: sequence comparisons are serial-arithmetic safe,
// so a stream whose offsets wrap past 2^32 keeps reassembling — with
// out-of-order and overlapping segments straddling the wrap point.
func TestSeqWraparound(t *testing.T) {
	key := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	var out []byte
	r := NewReassembler(func(_ FlowKey, p []byte) { out = append(out, p...) })
	r.Add(Segment{Flow: key, Seq: 0, Payload: []byte("s")})
	out = out[:0]
	// Fast-forward the flow to just before the 32-bit wrap, as a 4 GiB
	// stream would be.
	base := uint32(0xFFFFFF80)
	r.flows[key].next = base

	data := make([]byte, 512) // crosses the wrap at offset 128
	rng := rand.New(rand.NewSource(3))
	rng.Read(data)
	var segs []Segment
	for pos := 0; pos < len(data); pos += 64 {
		segs = append(segs, Segment{Flow: key, Seq: base + uint32(pos), Payload: data[pos : pos+64]})
	}
	// Overlapping retransmit straddling the wrap point itself.
	segs = append(segs, Segment{Flow: key, Seq: base + 96, Payload: data[96:160]})
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	for _, s := range segs {
		r.Add(s)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("wraparound stream corrupted: %d bytes vs %d", len(out), len(data))
	}
	if r.PendingBytes() != 0 {
		t.Fatalf("PendingBytes = %d after wrap", r.PendingBytes())
	}
	if got := r.flows[key].next; got != base+512 {
		t.Fatalf("next = %#x, want %#x", got, base+512)
	}
}

// TestPendingBudgets: for a live (delivering) stream, out-of-order
// bytes over the per-flow budget drop the segments furthest from the
// reassembly point first — gaps are never spliced; the global budget
// drops arrivals. Every dropped byte is counted.
func TestPendingBudgets(t *testing.T) {
	key := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	var out []byte
	r := NewReassembler(func(_ FlowKey, p []byte) { out = append(out, p...) })
	r.SetLimits(Limits{FlowPendingBytes: 80})

	pay := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	r.Add(Segment{Flow: key, Seq: 0, Payload: []byte("Z")}) // live stream
	r.Add(Segment{Flow: key, Seq: 10, Payload: pay(50, 'A')})
	// Over budget and further out than everything buffered: dropped.
	r.Add(Segment{Flow: key, Seq: 300, Payload: pay(60, 'B')})
	if got := r.Stats().BytesDropped; got != 60 {
		t.Fatalf("BytesDropped = %d, want 60 (far arrival)", got)
	}
	// Over budget but nearer than the buffered segment: the far one is
	// dropped to make room.
	r.Add(Segment{Flow: key, Seq: 2, Payload: pay(40, 'C')})
	if got := r.Stats().BytesDropped; got != 110 {
		t.Fatalf("BytesDropped = %d, want 110 (far pending evicted)", got)
	}
	if r.PendingBytes() != 40 {
		t.Fatalf("PendingBytes = %d, want 40", r.PendingBytes())
	}
	// An arrival larger than the whole budget is dropped without
	// evicting anything buffered (it could never fit anyway).
	r.Add(Segment{Flow: key, Seq: 200, Payload: pay(100, 'E')})
	if got := r.Stats(); got.BytesDropped != 210 || got.PendingBytes != 40 {
		t.Fatalf("oversized arrival wiped the buffer: %+v", got)
	}
	r.Add(Segment{Flow: key, Seq: 1, Payload: pay(1, 'D')})
	if string(out) != "ZD"+string(pay(40, 'C')) {
		t.Fatalf("delivered %q", out)
	}
	if got := r.Stats().GapSkips; got != 0 {
		t.Fatalf("live stream was spliced: %d gap skips", got)
	}

	// Global budget: arrivals that would exceed it are dropped whole.
	var n int
	r2 := NewReassembler(func(_ FlowKey, p []byte) { n += len(p) })
	r2.SetLimits(Limits{TotalPendingBytes: 100})
	k2 := FlowKey{SrcIP: 9, DstIP: 2, SrcPort: 3, DstPort: 4}
	r2.Add(Segment{Flow: key, Seq: 10, Payload: pay(80, 'A')})
	r2.Add(Segment{Flow: k2, Seq: 10, Payload: pay(30, 'B')}) // 80+30 > 100
	if got := r2.Stats(); got.BytesDropped != 30 || got.PendingBytes != 80 {
		t.Fatalf("global budget: %+v", got)
	}
}

// TestMidstreamJoinerResyncs: a flow that fills its reorder budget
// without ever delivering a byte joined mid-stream — most importantly
// the continuation of an evicted flow. It must re-synchronize to its
// buffered data (and keep being scanned) instead of black-holing every
// subsequent segment as undeliverable pending bytes.
func TestMidstreamJoinerResyncs(t *testing.T) {
	flow := func(i int) FlowKey { return FlowKey{SrcIP: uint32(i), DstIP: 2, SrcPort: 3, DstPort: 4} }
	delivered := map[FlowKey]int{}
	r := NewReassembler(func(k FlowKey, p []byte) { delivered[k] += len(p) })
	r.SetLimits(Limits{MaxFlows: 1, FlowPendingBytes: 128})

	// Flow 1 delivers 256 bytes, then is evicted by flow 2.
	seg := func(k FlowKey, seq uint32, n int, ts uint64) Segment {
		return Segment{Flow: k, Seq: seq, Payload: bytes.Repeat([]byte{'x'}, n), TsMicros: ts}
	}
	r.Add(seg(flow(1), 0, 256, 1))
	r.Add(seg(flow(2), 0, 1, 2)) // evicts flow 1
	if st := r.Stats(); st.FlowsEvicted != 1 {
		t.Fatalf("setup: %+v", st)
	}
	// Flow 1's continuation: in-order 64-byte segments from seq 256.
	// The fresh state expects seq 0, which will never come; once the
	// reorder budget fills, the flow must resync and resume delivery.
	for i := 0; i < 8; i++ {
		r.Add(seg(flow(1), 256+uint32(i*64), 64, uint64(10+i)))
	}
	if got := delivered[flow(1)]; got != 256+8*64 {
		t.Fatalf("continuation black-holed: %d of %d bytes delivered", got, 256+8*64)
	}
	st := r.Stats()
	if st.GapSkips == 0 {
		t.Fatal("resync did not register a gap skip")
	}
	if st.PendingBytes != 0 {
		t.Fatalf("pending leaked after resync: %+v", st)
	}

	// An arrival alone exceeding the budget on a never-delivered flow:
	// delivered directly past the gap, without wiping nearer buffered
	// data that is ahead of it.
	out := map[FlowKey][]byte{}
	r2 := NewReassembler(func(k FlowKey, p []byte) { out[k] = append(out[k], p...) })
	r2.SetLimits(Limits{FlowPendingBytes: 100})
	r2.Add(Segment{Flow: flow(9), Seq: 500, Payload: bytes.Repeat([]byte{'B'}, 90)})
	r2.Add(Segment{Flow: flow(9), Seq: 200, Payload: bytes.Repeat([]byte{'A'}, 150)})
	if got := string(out[flow(9)]); got != strings.Repeat("A", 150) {
		t.Fatalf("oversized joiner arrival not delivered: %d bytes", len(got))
	}
	if st := r2.Stats(); st.PendingBytes != 90 || st.BytesDropped != 0 {
		t.Fatalf("nearer-data wipe: %+v", st)
	}
	// The buffered far segment still drains once the stream reaches it.
	r2.Add(Segment{Flow: flow(9), Seq: 350, Payload: bytes.Repeat([]byte{'C'}, 150)})
	if got := len(out[flow(9)]); got != 150+150+90 {
		t.Fatalf("far pending lost after resync: %d bytes", got)
	}

	// Exactly-once across resync: when the resynced buffered run ends
	// past the arrival's start, the overlapping prefix must not be
	// delivered twice.
	var out3 []byte
	r3 := NewReassembler(func(_ FlowKey, p []byte) { out3 = append(out3, p...) })
	r3.SetLimits(Limits{FlowPendingBytes: 100})
	r3.Add(Segment{Flow: flow(9), Seq: 950, Payload: bytes.Repeat([]byte{'P'}, 80)})
	r3.Add(Segment{Flow: flow(9), Seq: 1000, Payload: bytes.Repeat([]byte{'Q'}, 150)})
	want := strings.Repeat("P", 80) + strings.Repeat("Q", 120)
	if string(out3) != want {
		t.Fatalf("resync re-delivered overlap: %d bytes, want %d", len(out3), len(want))
	}
}

// TestFlowCapAndIdleEviction: the flow cap evicts the least recently
// active flow; the idle timeout expires flows on the capture clock.
// Both fire the OnClose hook with evicted=true.
func TestFlowCapAndIdleEviction(t *testing.T) {
	flow := func(i int) FlowKey { return FlowKey{SrcIP: uint32(i), DstIP: 2, SrcPort: 3, DstPort: 4} }
	var evicted []FlowKey
	r := NewReassembler(func(FlowKey, []byte) {})
	r.OnClose(func(k FlowKey, ev bool) {
		if !ev {
			t.Fatalf("cap eviction of %v reported as teardown", k)
		}
		evicted = append(evicted, k)
	})
	r.SetLimits(Limits{MaxFlows: 2})
	r.Add(Segment{Flow: flow(1), Seq: 0, Payload: []byte("a"), TsMicros: 1})
	r.Add(Segment{Flow: flow(2), Seq: 0, Payload: []byte("b"), TsMicros: 2})
	r.Add(Segment{Flow: flow(1), Seq: 1, Payload: []byte("c"), TsMicros: 3}) // 1 now most recent
	r.Add(Segment{Flow: flow(3), Seq: 0, Payload: []byte("d"), TsMicros: 4})
	if len(evicted) != 1 || evicted[0] != flow(2) {
		t.Fatalf("evicted %v, want LRU flow 2", evicted)
	}
	st := r.Stats()
	if st.Flows != 2 || st.PeakFlows != 2 || st.FlowsEvicted != 1 {
		t.Fatalf("stats %+v", st)
	}

	// Idle timeout: flow 1 idles past the deadline and is evicted when
	// the capture clock advances; its pending bytes count as dropped.
	evicted = nil
	r2 := NewReassembler(func(FlowKey, []byte) {})
	r2.OnClose(func(k FlowKey, ev bool) { evicted = append(evicted, k) })
	r2.SetLimits(Limits{IdleTimeoutMicros: 1000})
	r2.Add(Segment{Flow: flow(1), Seq: 5, Payload: []byte("hole"), TsMicros: 100})
	r2.Add(Segment{Flow: flow(2), Seq: 0, Payload: []byte("x"), TsMicros: 2000})
	if len(evicted) != 1 || evicted[0] != flow(1) {
		t.Fatalf("idle eviction got %v", evicted)
	}
	if st := r2.Stats(); st.FlowsEvicted != 1 || st.BytesDropped != 4 || st.PendingBytes != 0 {
		t.Fatalf("idle stats %+v", st)
	}
}

// TestDuplicateRetransmitKeepsNovelPending: an exact duplicate of an
// already-buffered segment must be discarded by dedup BEFORE budget
// enforcement — it must not evict genuinely novel pending data.
func TestDuplicateRetransmitKeepsNovelPending(t *testing.T) {
	key := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	var out []byte
	r := NewReassembler(func(_ FlowKey, p []byte) { out = append(out, p...) })
	r.SetLimits(Limits{FlowPendingBytes: 2048})
	segA := bytes.Repeat([]byte{'A'}, 1024)
	segB := bytes.Repeat([]byte{'B'}, 1024)
	r.Add(Segment{Flow: key, Seq: 100, Payload: segA})
	r.Add(Segment{Flow: key, Seq: 4000, Payload: segB})
	// Budget is exactly full; a duplicate of the first segment is a
	// no-op and must leave both buffered segments intact.
	r.Add(Segment{Flow: key, Seq: 100, Payload: segA})
	if st := r.Stats(); st.PendingBytes != 2048 || st.BytesDropped != 0 {
		t.Fatalf("duplicate retransmit disturbed the budget: %+v", st)
	}
	// A longer replacement whose delta does not fit keeps the original;
	// only the novel tail (6 bytes) counts as dropped — the rest stays
	// buffered and is still delivered.
	r.Add(Segment{Flow: key, Seq: 100, Payload: bytes.Repeat([]byte{'A'}, 1030)})
	if st := r.Stats(); st.PendingBytes != 2048 || st.BytesDropped != 6 {
		t.Fatalf("over-budget replacement mishandled: %+v", st)
	}
	// Both buffered segments still drain correctly.
	r.Add(Segment{Flow: key, Seq: 0, Payload: bytes.Repeat([]byte{'x'}, 100)})
	if len(out) != 100+1024 || !bytes.HasSuffix(out, segA) {
		t.Fatalf("drained %d bytes, want head+A", len(out))
	}
}

// TestTombstoneFloodDoesNotStarveLiveFlows: retransmits to a closed
// flow must not refresh its LRU position or idle clock — a replay
// flood would otherwise keep dead tombstones resident while live flows
// are evicted.
func TestTombstoneFloodDoesNotStarveLiveFlows(t *testing.T) {
	flow := func(i int) FlowKey { return FlowKey{SrcIP: uint32(i), DstIP: 2, SrcPort: 3, DstPort: 4} }
	r := NewReassembler(func(FlowKey, []byte) {})
	r.SetLimits(Limits{MaxFlows: 2})
	// flow 1 closes, flow 2 stays live.
	r.Add(Segment{Flow: flow(1), Seq: 0, Payload: []byte("a"), Flags: FlagFIN, TsMicros: 1})
	r.Add(Segment{Flow: flow(2), Seq: 0, Payload: []byte("b"), TsMicros: 2})
	// Replay flood against the tombstone: dropped, and must NOT make
	// the tombstone most-recently-active.
	for i := 0; i < 4; i++ {
		r.Add(Segment{Flow: flow(1), Seq: 0, Payload: []byte("a"), TsMicros: uint64(3 + i)})
	}
	// A new flow hits the cap: the tombstone must go, not the live flow.
	r.Add(Segment{Flow: flow(3), Seq: 0, Payload: []byte("c"), TsMicros: 10})
	if _, live := r.flows[flow(2)]; !live {
		t.Fatal("replay flood starved a live flow out of the table")
	}
	if r.tombs.has(flow(1)) || r.tombs.len() != 0 {
		t.Fatal("tombstone outlived a live flow under the cap")
	}
	if st := r.Stats(); st.FlowsEvicted != 0 {
		t.Fatalf("expiring the tombstone counted as eviction: %+v", st)
	}

	// Idle expiry runs on the teardown-time clock, unrefreshed by the
	// flood.
	r2 := NewReassembler(func(FlowKey, []byte) {})
	r2.SetLimits(Limits{IdleTimeoutMicros: 1000})
	r2.Add(Segment{Flow: flow(1), Seq: 0, Payload: []byte("a"), Flags: FlagFIN, TsMicros: 100})
	r2.Add(Segment{Flow: flow(1), Seq: 0, Payload: []byte("a"), TsMicros: 1050}) // replay
	r2.Add(Segment{Flow: flow(2), Seq: 0, Payload: []byte("b"), TsMicros: 1200})
	if r2.tombs.has(flow(1)) || r2.tombs.len() != 0 {
		t.Fatal("replayed tombstone did not expire on its teardown clock")
	}
}

// TestTeardownAndTombstones: FIN closes a flow once the stream is fully
// delivered (even when the FIN segment arrives early), RST closes
// immediately dropping buffered data, and late retransmits after
// teardown are dropped instead of being misread as a new stream.
func TestTeardownAndTombstones(t *testing.T) {
	flow := func(i int) FlowKey { return FlowKey{SrcIP: uint32(i), DstIP: 2, SrcPort: 3, DstPort: 4} }
	var out []byte
	var closed []FlowKey
	r := NewReassembler(func(_ FlowKey, p []byte) { out = append(out, p...) })
	r.OnClose(func(k FlowKey, ev bool) {
		if ev {
			t.Fatalf("teardown of %v reported as eviction", k)
		}
		closed = append(closed, k)
	})

	// FIN arriving out of order: teardown waits for the full stream.
	r.Add(Segment{Flow: flow(1), Seq: 3, Payload: []byte("def"), Flags: FlagFIN})
	if len(closed) != 0 {
		t.Fatal("closed before the stream completed")
	}
	r.Add(Segment{Flow: flow(1), Seq: 0, Payload: []byte("abc")})
	if string(out) != "abcdef" || len(closed) != 1 || closed[0] != flow(1) {
		t.Fatalf("FIN teardown: out=%q closed=%v", out, closed)
	}
	// Late retransmit after teardown: dropped, not re-delivered.
	r.Add(Segment{Flow: flow(1), Seq: 0, Payload: []byte("abc")})
	if string(out) != "abcdef" {
		t.Fatalf("tombstone failed, re-delivered: %q", out)
	}
	st := r.Stats()
	if st.FlowsClosed != 1 || st.BytesDropped != 3 || st.Flows != 1 {
		t.Fatalf("stats after FIN %+v", st)
	}

	// RST: immediate close, buffered bytes dropped.
	r.Add(Segment{Flow: flow(2), Seq: 10, Payload: []byte("zz")})
	r.Add(Segment{Flow: flow(2), Flags: FlagRST})
	if st := r.Stats(); st.FlowsClosed != 2 || st.BytesDropped != 5 || st.PendingBytes != 0 {
		t.Fatalf("stats after RST %+v", st)
	}
}

// TestStatsMergeInto: lifecycle counters fold into metrics.Counters
// (PeakFlows by max, the rest additive).
func TestStatsMergeInto(t *testing.T) {
	var c metrics.Counters
	Stats{FlowsEvicted: 3, BytesDropped: 100, PeakFlows: 7}.MergeInto(&c)
	Stats{FlowsEvicted: 2, BytesDropped: 10, PeakFlows: 5}.MergeInto(&c)
	if c.FlowsEvicted != 5 || c.BytesDropped != 110 || c.PeakFlows != 7 {
		t.Fatalf("merged counters %+v", c)
	}
}

// TestSpoofedControlFloodCreatesNoState: RSTs and bare FINs for
// untracked flows must not allocate flow state — otherwise a spoofed
// control flood with random 5-tuples churns live flows out of a capped
// table and fills it with tombstones.
func TestSpoofedControlFloodCreatesNoState(t *testing.T) {
	live := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	var delivered int
	r := NewReassembler(func(_ FlowKey, p []byte) { delivered += len(p) })
	r.SetLimits(Limits{MaxFlows: 2})
	r.Add(Segment{Flow: live, Seq: 0, Payload: []byte("held"), TsMicros: 1})
	for i := 0; i < 100; i++ {
		k := FlowKey{SrcIP: uint32(1000 + i), DstIP: 9, SrcPort: uint16(i), DstPort: 80}
		r.Add(Segment{Flow: k, Flags: FlagRST, Payload: []byte("junk"), TsMicros: uint64(2 + i)})
		r.Add(Segment{Flow: k, Flags: FlagFIN, TsMicros: uint64(2 + i)})
	}
	st := r.Stats()
	if st.Flows != 1 || st.FlowsEvicted != 0 || st.FlowsClosed != 0 {
		t.Fatalf("control flood created state: %+v", st)
	}
	// The live flow survived and keeps reassembling.
	r.Add(Segment{Flow: live, Seq: 4, Payload: []byte("on"), TsMicros: 200})
	if delivered != 6 {
		t.Fatalf("live flow disturbed: %d bytes delivered", delivered)
	}
}

func TestFlowKeyHashPartitionsConsistently(t *testing.T) {
	k := FlowKey{SrcIP: 0x0A000001, DstIP: 0xC0A80105, SrcPort: 1234, DstPort: 80}
	if k.Hash() != k.Hash() {
		t.Fatal("hash not deterministic")
	}
	// Distinct flows should not trivially collide.
	seen := map[uint32]bool{}
	for i := 0; i < 1000; i++ {
		seen[FlowKey{SrcIP: uint32(i), DstIP: 9, SrcPort: uint16(i), DstPort: 80}.Hash()] = true
	}
	if len(seen) < 990 {
		t.Fatalf("hash collides heavily: %d distinct of 1000", len(seen))
	}
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{SrcIP: 0x0A000001, DstIP: 0xC0A80105, SrcPort: 1234, DstPort: 80}
	s := k.String()
	if !strings.Contains(s, "10.0.0.1:1234") || !strings.Contains(s, "192.168.1.5:80") {
		t.Fatalf("FlowKey.String() = %q", s)
	}
}

func TestPcapRoundTrip(t *testing.T) {
	flows := testFlows(3, 8<<10, 21)
	segs := Packetize(flows, PacketizeOptions{MTU: 900, Seed: 3, FIN: true})
	// A trailing bare RST exercises reset framing (the flow is already
	// FIN-closed, so reassembly below is unaffected).
	segs = append(segs, Segment{Flow: segs[0].Flow, Flags: FlagRST,
		TsMicros: segs[len(segs)-1].TsMicros + 1})
	var buf bytes.Buffer
	if err := WritePcap(&buf, segs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(segs) {
		t.Fatalf("round trip: %d vs %d segments", len(back), len(segs))
	}
	finSeen := false
	for i := range segs {
		if back[i].Flow != segs[i].Flow || back[i].Seq != segs[i].Seq ||
			back[i].TsMicros != segs[i].TsMicros ||
			back[i].Flags != segs[i].Flags ||
			!bytes.Equal(back[i].Payload, segs[i].Payload) {
			t.Fatalf("segment %d changed in round trip", i)
		}
		finSeen = finSeen || back[i].Flags&FlagFIN != 0
	}
	if !finSeen {
		t.Fatal("no FIN survived the pcap round trip")
	}
	// Reassembly of the reread capture restores the original streams.
	got := reassembleAll(back)
	for k, want := range flows {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("flow %v corrupted through pcap", k)
		}
	}
}

func TestPcapHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePcap(&buf, nil); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 24 {
		t.Fatalf("empty capture is %d bytes, want 24", len(b))
	}
	if b[0] != 0xD4 || b[1] != 0xC3 || b[2] != 0xB2 || b[3] != 0xA1 {
		t.Fatalf("little-endian magic wrong: % x", b[:4])
	}
}

func TestReadPcapErrors(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("truncated header accepted")
	}
	bad := make([]byte, 24)
	if _, err := ReadPcap(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestIPv4ChecksumVerifies(t *testing.T) {
	seg := Segment{Flow: FlowKey{SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 1, DstPort: 2},
		Payload: []byte("x")}
	frame := appendFrame(nil, &seg)
	ip := frame[etherHdrLen : etherHdrLen+ipv4HdrLen]
	// Recomputing the checksum over the header including the stored
	// checksum must yield 0 (standard IPv4 verification).
	sum := uint32(0)
	for i := 0; i+1 < len(ip); i += 2 {
		sum += uint32(ip[i])<<8 | uint32(ip[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	if ^uint16(sum) != 0 {
		t.Fatalf("IPv4 checksum does not verify: %#x", ^uint16(sum))
	}
}

// Property: for random flow contents and packetization parameters —
// including overlapping retransmits and FIN teardown — reassembly
// always restores the exact streams, every flow tears down, and no
// out-of-order bytes leak.
func TestPacketizeReassembleProperty(t *testing.T) {
	f := func(seed int64, jitterRaw uint8, dupRaw uint8, overlapRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		flows := make(map[FlowKey][]byte)
		for i := 0; i < 1+rng.Intn(4); i++ {
			data := make([]byte, 1+rng.Intn(4096))
			rng.Read(data)
			flows[FlowKey{SrcIP: uint32(i + 1), DstIP: 9, SrcPort: uint16(i), DstPort: 80}] = data
		}
		segs := Packetize(flows, PacketizeOptions{
			MTU:           64 + rng.Intn(1400),
			Jitter:        int(jitterRaw % 16),
			DuplicateFrac: float64(dupRaw%50) / 100,
			OverlapFrac:   float64(overlapRaw%60) / 100,
			FIN:           true,
			Seed:          seed,
		})
		out := make(map[FlowKey][]byte)
		r := NewReassembler(func(k FlowKey, p []byte) {
			out[k] = append(out[k], p...)
		})
		for _, s := range segs {
			r.Add(s)
		}
		for k, want := range flows {
			if !bytes.Equal(out[k], want) {
				return false
			}
		}
		st := r.Stats()
		return st.PendingBytes == 0 && st.FlowsClosed == uint64(len(flows)) &&
			st.FlowsEvicted == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicStatsRoundTrip: Store/Load must reproduce every field.
func TestAtomicStatsRoundTrip(t *testing.T) {
	want := Stats{Flows: 1, PeakFlows: 2, FlowsClosed: 3, FlowsEvicted: 4,
		BytesDropped: 5, GapSkips: 6, PendingBytes: 7}
	var a AtomicStats
	a.Store(want)
	if got := a.Load(); got != want {
		t.Fatalf("AtomicStats round trip: got %+v, want %+v", got, want)
	}
}

// TestAtomicStatsConcurrent: one publisher, many scrapers, race-free
// under -race, and the monotonic counters never go backwards.
func TestAtomicStatsConcurrent(t *testing.T) {
	var a AtomicStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		var s Stats
		for i := 0; i < 2000; i++ {
			s.FlowsClosed++
			s.BytesDropped += 3
			s.Flows = i % 7
			a.Store(s)
		}
	}()
	var prev Stats
	for {
		got := a.Load()
		if got.FlowsClosed < prev.FlowsClosed || got.BytesDropped < prev.BytesDropped {
			t.Fatalf("monotonic counter went backwards: %+v after %+v", got, prev)
		}
		prev = got
		select {
		case <-done:
			if final := a.Load(); final.FlowsClosed != 2000 {
				t.Fatalf("final FlowsClosed = %d, want 2000", final.FlowsClosed)
			}
			return
		default:
		}
	}
}

// TestReadPcapPartial: a capture truncated mid-packet must yield the
// segments before the truncation point together with the error, so
// tools can analyze the readable prefix.
func TestReadPcapPartial(t *testing.T) {
	streams := map[FlowKey][]byte{
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80}: []byte(strings.Repeat("abcdef", 100)),
		{SrcIP: 4, DstIP: 5, SrcPort: 6, DstPort: 25}: []byte(strings.Repeat("xyzw", 120)),
	}
	segs := Packetize(streams, PacketizeOptions{MTU: 64, Seed: 7})
	var buf bytes.Buffer
	if err := WritePcap(&buf, segs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut inside the last packet's body.
	cut := full[:len(full)-3]
	got, err := ReadPcap(bytes.NewReader(cut))
	if err == nil {
		t.Fatal("truncated capture must return an error")
	}
	if len(got) != len(segs)-1 {
		t.Fatalf("partial read returned %d segments, want %d", len(got), len(segs)-1)
	}
	for i := range got {
		if !bytes.Equal(got[i].Payload, segs[i].Payload) || got[i].Flow != segs[i].Flow {
			t.Fatalf("segment %d differs after partial read", i)
		}
	}
	// Header-level failure: no segments.
	bad := append([]byte{}, full...)
	bad[0] ^= 0xFF
	if got, err := ReadPcap(bytes.NewReader(bad)); err == nil || len(got) != 0 {
		t.Fatalf("bad magic: got %d segments, err %v", len(got), err)
	}
}

package netsim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Tests for the closed-flow tombstones: pointer-free set entries plus a
// close-ordered queue, outside the live-flow table and LRU.

func tflow(i int) FlowKey { return FlowKey{SrcIP: uint32(i), DstIP: 2, SrcPort: 3, DstPort: 4} }

var onePayload = []byte("x")

// openClose runs flow i's whole life at capture time ts: one payload
// segment carrying the FIN.
func openClose(r *Reassembler, i int, ts uint64) {
	r.Add(Segment{Flow: tflow(i), Payload: onePayload, Flags: FlagFIN, TsMicros: ts})
}

// TestLateRetransmitAfterTeardown: segments for a flow torn down by FIN
// or by RST are dropped and counted, never delivered and never tracked
// as a new stream, and they do not postpone the tombstone's expiry.
func TestLateRetransmitAfterTeardown(t *testing.T) {
	delivered := 0
	r := NewReassembler(func(_ FlowKey, p []byte) { delivered += len(p) })
	r.SetLimits(Limits{IdleTimeoutMicros: 1000})
	r.Add(Segment{Flow: tflow(1), Payload: []byte("fin"), Flags: FlagFIN, TsMicros: 10})
	r.Add(Segment{Flow: tflow(2), Payload: []byte("rst"), TsMicros: 20})
	r.Add(Segment{Flow: tflow(2), Flags: FlagRST, TsMicros: 30})
	if st := r.Stats(); st.FlowsClosed != 2 || st.Flows != 2 || len(r.flows) != 0 {
		t.Fatalf("after teardown: %+v, %d live", st, len(r.flows))
	}
	for i, k := range []FlowKey{tflow(1), tflow(2), tflow(1)} {
		r.Add(Segment{Flow: k, Seq: uint32(i), Payload: []byte("late!"), TsMicros: uint64(40 + i)})
	}
	// A late RST or bare FIN is dropped too, silently (no payload).
	r.Add(Segment{Flow: tflow(1), Flags: FlagRST, TsMicros: 50})
	st := r.Stats()
	if delivered != 6 || st.BytesDropped != 15 || st.FlowsClosed != 2 || st.Flows != 2 || len(r.flows) != 0 {
		t.Fatalf("late retransmits: delivered %d, %+v, %d live", delivered, st, len(r.flows))
	}
	// Expiry runs on the teardown clock (10 and 30), not the replays'.
	r.Add(Segment{Flow: tflow(3), Payload: []byte("y"), TsMicros: 1015})
	if r.tombs.has(tflow(1)) {
		t.Fatal("tombstone 1 survived its teardown-time expiry")
	}
	if !r.tombs.has(tflow(2)) {
		t.Fatal("tombstone 2 expired early")
	}
}

// TestTombstoneExpiryAndReopen: a tombstone expires once the capture
// clock passes its teardown time by the idle timeout, without firing
// the close hook again; after that the same key is a new stream.
func TestTombstoneExpiryAndReopen(t *testing.T) {
	var out []byte
	hooks := 0
	r := NewReassembler(func(_ FlowKey, p []byte) { out = append(out, p...) })
	r.OnClose(func(FlowKey, bool) { hooks++ })
	r.SetLimits(Limits{IdleTimeoutMicros: 100})
	r.Add(Segment{Flow: tflow(1), Payload: []byte("one"), Flags: FlagFIN, TsMicros: 1000})
	r.Add(Segment{Flow: tflow(1), Payload: []byte("dup"), TsMicros: 1100}) // exactly at the bound: still dead
	if string(out) != "one" || r.Flows() != 1 {
		t.Fatalf("before expiry: out %q, flows %d", out, r.Flows())
	}
	r.Add(Segment{Flow: tflow(1), Payload: []byte("two"), TsMicros: 1101}) // past it: a new stream
	if string(out) != "onetwo" || len(r.flows) != 1 || r.tombs.len() != 0 {
		t.Fatalf("re-open after expiry: out %q, %d live, %d dead", out, len(r.flows), r.tombs.len())
	}
	if st := r.Stats(); hooks != 1 || st.FlowsClosed != 1 || st.FlowsEvicted != 0 || st.PeakFlows != 1 {
		t.Fatalf("expiry fired the hook or counted as eviction: hooks %d, %+v", hooks, st)
	}
}

// TestCapEvictionOrderAcrossTombstones: under MaxFlows, room is made
// oldest-activity-first across live flows and tombstones alike, a
// tombstone going before a live flow of the same age; Flows and
// PeakFlows count both kinds.
func TestCapEvictionOrderAcrossTombstones(t *testing.T) {
	var evicted []FlowKey
	r := NewReassembler(func(FlowKey, []byte) {})
	r.OnClose(func(k FlowKey, ev bool) {
		if ev {
			evicted = append(evicted, k)
		}
	})
	r.SetLimits(Limits{MaxFlows: 4})
	r.Add(Segment{Flow: tflow(1), Payload: []byte("a"), TsMicros: 10}) // live, oldest
	openClose(r, 2, 20)                                                // tombstone
	r.Add(Segment{Flow: tflow(3), Payload: []byte("c"), TsMicros: 30}) // live
	openClose(r, 4, 30)                                                // tombstone, same age as live 3
	if st := r.Stats(); st.Flows != 4 || st.PeakFlows != 4 {
		t.Fatalf("flows must include tombstones: %+v", st)
	}
	tracked := func() (s []int) {
		for i := 1; i <= 8; i++ {
			_, live := r.flows[tflow(i)]
			if live || r.tombs.has(tflow(i)) {
				s = append(s, i)
			}
		}
		return s
	}
	for step, want := range [][]int{
		{2, 3, 4, 5}, // live 1 (ts 10) is the oldest of all
		{3, 4, 5, 6}, // then tombstone 2 (ts 20)
		{3, 5, 6, 7}, // then tombstone 4 before live 3 (both ts 30)
		{5, 6, 7, 8}, // then live 3
	} {
		r.Add(Segment{Flow: tflow(5 + step), Payload: []byte("n"), TsMicros: uint64(40 + step)})
		got := tracked()
		if len(got) != len(want) {
			t.Fatalf("step %d: tracking %v, want %v", step, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: tracking %v, want %v", step, got, want)
			}
		}
	}
	if len(evicted) != 2 || evicted[0] != tflow(1) || evicted[1] != tflow(3) {
		t.Fatalf("evicted %v, want live flows 1 then 3 (tombstones expire silently)", evicted)
	}
	if st := r.Stats(); st.FlowsEvicted != 2 || st.Flows != 4 || st.PeakFlows != 4 {
		t.Fatalf("stats %+v", st)
	}
}

// TestUnstampedSegmentsRunTheClock: a sender that never stamps TsMicros
// must still see tombstones expire — the arrival clock stands in — and
// a stamped capture clock ahead of it keeps precedence.
func TestUnstampedSegmentsRunTheClock(t *testing.T) {
	r := NewReassembler(func(FlowKey, []byte) {})
	r.SetLimits(Limits{IdleTimeoutMicros: 1})
	for i := 0; i < 2000; i++ {
		r.Add(Segment{Flow: tflow(i), Payload: []byte("x"), Flags: FlagFIN})
	}
	if r.now == 0 {
		t.Fatal("unstamped segments left the capture clock at zero")
	}
	// 2000 teardowns take far longer than the 1 µs timeout: all but the
	// last few tombstones must be gone.
	if n := r.Flows(); n > 1000 {
		t.Fatalf("%d tombstones retained from an unstamped sender", n)
	}
	r.Add(Segment{Flow: tflow(-1), Payload: []byte("x"), TsMicros: 1 << 50})
	r.Add(Segment{Flow: tflow(-2), Payload: []byte("x")})
	if r.now != 1<<50 {
		t.Fatalf("arrival clock overrode a later capture stamp: now %d", r.now)
	}
}

// TestTombstoneMemoryBound: 100 000 open/close cycles with every
// tombstone retained grow the heap by at most 64 B per tombstone, and
// once the timeout balances teardowns with expiries a cycle allocates
// nothing.
func TestTombstoneMemoryBound(t *testing.T) {
	const cycles = 100_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	r := NewReassembler(func(FlowKey, []byte) {})
	openClose(r, 0, 1) // warm: maps, queue and free list exist
	before := heap()
	for i := 1; i <= cycles; i++ {
		openClose(r, i, uint64(i))
	}
	after := heap()
	if r.Flows() != cycles+1 || len(r.flows) != 0 {
		t.Fatalf("%d tracked, %d live; want %d tombstones", r.Flows(), len(r.flows), cycles+1)
	}
	grown := int64(after) - int64(before)
	if per := float64(grown) / cycles; per > 64 {
		t.Fatalf("heap grew %d B over %d retained tombstones: %.1f B each, want <= 64", grown, cycles, per)
	} else {
		t.Logf("%.1f B of heap per retained tombstone", per)
	}
	runtime.KeepAlive(r)

	// Steady state: every cycle expires one tombstone and adds one.
	r = NewReassembler(func(FlowKey, []byte) {})
	r.SetLimits(Limits{IdleTimeoutMicros: 5000, MaxFlows: 1 << 20})
	i := 0
	cycle := func() {
		i++
		openClose(r, i, uint64(i))
	}
	for i < 20_000 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(cycles, cycle); allocs != 0 {
		t.Fatalf("%v allocations per open/close cycle after warm-up, want 0", allocs)
	}
	if n := r.Flows(); n < 5000 || n > 5002 {
		t.Fatalf("steady state holds %d tombstones, want the timeout's 5001", n)
	}
}

// TestTombSetAgainstModel drives tombSet with random pushes and pops —
// through index growth, shrinkage, chunk turnover and the position
// counter's wrap — against a plain map-plus-slice model: membership,
// FIFO order and teardown times must agree at every step.
func TestTombSetAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, start := range []uint32{0, math.MaxUint32 - 3000} {
		var s tombSet
		s.base, s.next = start, start // as if that many flows had come and gone
		model := map[FlowKey]uint64{}
		var order []FlowKey
		nextKey := 0
		check := func(step int) {
			t.Helper()
			if s.len() != len(order) {
				t.Fatalf("start %d step %d: len %d, model %d", start, step, s.len(), len(order))
			}
			if len(order) > 0 {
				if f := s.front(); f.key != order[0] || f.ts() != model[order[0]] {
					t.Fatalf("start %d step %d: front %v@%d, model %v@%d", start, step, f.key, f.ts(), order[0], model[order[0]])
				}
			}
			for i := 0; i < 8; i++ {
				k := tflow(rng.Intn(nextKey + 10))
				if _, want := model[k]; s.has(k) != want {
					t.Fatalf("start %d step %d: has(%v) = %v, model %v", start, step, k, !want, want)
				}
			}
		}
		// Phases push harder, then pop harder, so the index both doubles
		// several times and halves back to its minimum.
		for step := 0; step < 60_000; step++ {
			pushBias := 70
			if step%20_000 >= 10_000 {
				pushBias = 25
			}
			if rng.Intn(100) < pushBias || len(order) == 0 {
				k := tflow(nextKey)
				nextKey++
				ts := uint64(step)<<31 | uint64(rng.Int63n(1<<31)) // exercises both halves of the split time
				s.push(k, ts)
				model[k] = ts
				order = append(order, k)
			} else {
				s.pop()
				delete(model, order[0])
				order = order[1:]
			}
			check(step)
		}
		for len(order) > 0 {
			s.pop()
			delete(model, order[0])
			order = order[1:]
			check(-1)
		}
		if len(s.index) != tombMinIndex || len(s.chunks) != 0 {
			t.Fatalf("start %d: drained set keeps %d index slots, %d chunks", start, len(s.index), len(s.chunks))
		}
	}
}

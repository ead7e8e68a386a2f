package netsim

import (
	"bytes"
	"testing"

	"vpatch/internal/arena"
)

// TestReassemblerArenaIdentical proves the arena-backed reassembler
// delivers byte-identical streams under reorder/dup/overlap pressure
// and returns every rented chunk once the flows drain.
func TestReassemblerArenaIdentical(t *testing.T) {
	flows := testFlows(4, 16<<10, 21)
	segs := Packetize(flows, PacketizeOptions{
		MTU: 300, Jitter: 12, DuplicateFrac: 0.1, OverlapFrac: 0.1, Seed: 22,
	})

	a := arena.New(arena.Config{})
	got := make(map[FlowKey][]byte)
	r := NewReassembler(func(k FlowKey, p []byte) {
		got[k] = append(got[k], p...)
	})
	r.SetArena(a.NewLocal())
	for _, s := range segs {
		r.Add(s)
	}
	for k, want := range flows {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("flow %v: stream corrupted under arena recycling", k)
		}
	}
	if r.PendingBytes() != 0 {
		t.Fatalf("PendingBytes = %d after full drain", r.PendingBytes())
	}
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("arena InUse = %d after drain: pending chunks leaked", st.InUse)
	}
}

// TestReassemblerArenaOverflowIdentical forces the arena past its cap
// so pending copies overflow to the heap, and checks the streams stay
// byte-identical — the degraded mode must only cost allocations.
func TestReassemblerArenaOverflowIdentical(t *testing.T) {
	flows := testFlows(3, 12<<10, 31)
	segs := Packetize(flows, PacketizeOptions{
		MTU: 400, Jitter: 16, DuplicateFrac: 0.2, Seed: 32,
	})

	a := arena.New(arena.Config{MaxBytes: 1024}) // absurdly tight: everything overflows
	got := make(map[FlowKey][]byte)
	r := NewReassembler(func(k FlowKey, p []byte) {
		got[k] = append(got[k], p...)
	})
	r.SetArena(a.NewLocal())
	for _, s := range segs {
		r.Add(s)
	}
	for k, want := range flows {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("flow %v: stream corrupted under arena overflow", k)
		}
	}
	st := a.Stats()
	if st.Overflows == 0 {
		t.Fatal("expected overflow rents under a 1 KiB cap")
	}
	if st.InUse != 0 {
		t.Fatalf("arena InUse = %d after drain", st.InUse)
	}
}

// TestSegmentOwnership exercises the Segment release hook contract.
func TestSegmentOwnership(t *testing.T) {
	a := arena.New(arena.Config{})
	b := a.Rent(128)
	payload := b.Data()[:5]
	copy(payload, "hello")

	seg := Segment{Flow: FlowKey{SrcIP: 1}, Payload: payload}
	if seg.Owned() {
		t.Fatal("unowned segment reports Owned")
	}
	seg.ReleasePayload() // no-op for unowned segments
	if seg.Payload == nil {
		t.Fatal("ReleasePayload nilled an unowned payload")
	}

	seg.SetOwned(b)
	if !seg.Owned() || seg.own != b {
		t.Fatal("SetOwned did not register the chunk")
	}
	seg.ReleasePayload()
	if seg.Owned() || seg.Payload != nil {
		t.Fatal("ReleasePayload did not clear the segment")
	}
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("chunk not returned: InUse = %d", st.InUse)
	}
	seg.ReleasePayload() // second call is a no-op, not a double release
}

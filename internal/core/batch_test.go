package core

import (
	"testing"

	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
	"vpatch/internal/vec"
)

// batchTestSet mixes short and long patterns so both candidate classes
// flow through the batched verification round.
func batchTestSet() *patterns.Set {
	return patterns.FromStrings(
		"GET", "Host", "attack-vector-long", "ab", "x", "content-length",
	)
}

// collectBatch runs a batch scan and returns matches grouped by buffer,
// sorted.
func collectBatch(m *VPatch, bufs [][]byte, c *metrics.Counters) [][]patterns.Match {
	out := make([][]patterns.Match, len(bufs))
	m.ScanBatch(bufs, c, func(b int, mm patterns.Match) {
		out[b] = append(out[b], mm)
	})
	for _, ms := range out {
		patterns.SortMatches(ms)
	}
	return out
}

// TestVPatchBatchVariantsAgree: the fused production path, the explicit
// lane-per-packet engine (requested per scan and forced), and every
// ablation variant must produce identical per-buffer matches.
func TestVPatchBatchVariantsAgree(t *testing.T) {
	set := batchTestSet()
	bufs := [][]byte{
		[]byte("GET /attack-vector-long HTTP/1.1"),
		[]byte("x"),
		nil,
		[]byte("Host: ab"),
		traffic.Synthesize(traffic.ISCXDay2, 8<<10, 1, set),
		[]byte("ab"),
	}

	base := NewVPatch(set, VOptions{})
	want := collectBatch(base, bufs, nil) // fused path

	// The same matcher with lane-exact accounting: the lane engine.
	c := metrics.Counters{LaneExact: true}
	got := collectBatch(base, bufs, &c)
	for i := range bufs {
		if !patterns.EqualMatches(got[i], want[i]) {
			t.Fatalf("lane-exact: buffer %d: %d matches, want %d", i, len(got[i]), len(want[i]))
		}
	}
	if c.BatchIters == 0 {
		t.Fatal("lane-exact batch counted no batched steps")
	}

	variants := map[string]VOptions{
		"force-engine":   {ForceEngine: true},
		"no-merge":       {NoFilterMerge: true},
		"branchy-f3":     {BranchyFilter3: true},
		"width-4":        {Width: 4, ForceEngine: true},
		"width-16":       {Width: 16, ForceEngine: true},
		"tiny-chunk":     {ChunkSize: 64},
		"small-filter-3": {Filter3Log2Bits: 14},
	}
	for name, opt := range variants {
		m := NewVPatch(set, opt)
		got := collectBatch(m, bufs, nil)
		for i := range bufs {
			if !patterns.EqualMatches(got[i], want[i]) {
				t.Fatalf("%s: buffer %d: %d matches, want %d", name, i, len(got[i]), len(want[i]))
			}
		}
	}
}

// TestBatchLaneOccupancy: occupancy is ~1.0 while many packets pend
// (lane refill working) and bounded by 1/W when only one packet exists.
func TestBatchLaneOccupancy(t *testing.T) {
	set := batchTestSet()
	m := NewVPatch(set, VOptions{})
	w := m.Width()

	many := traffic.FixedPackets(traffic.ISCXDay2, 64, 64*w, 3, nil)
	c := metrics.Counters{LaneExact: true}
	m.ScanBatch(many, &c, nil)
	if frac := c.BatchLaneFrac(w); frac < 0.95 {
		t.Fatalf("occupancy %.3f over %d packets, want >= 0.95", frac, len(many))
	}

	c1 := metrics.Counters{LaneExact: true}
	m.ScanBatch(traffic.FixedPackets(traffic.ISCXDay2, 64, 1, 3, nil), &c1, nil)
	if frac := c1.BatchLaneFrac(w); frac > 1.0/float64(w)+1e-9 {
		t.Fatalf("single packet occupancy %.3f, want <= 1/W", frac)
	}
}

// TestBatchTinyBufferFlood: a batch dominated by sub-4-byte buffers
// (drained scalar at refill, never entering a lane) must still flush
// verification at the watermark — candidate arrays stay bounded — and
// report every match.
func TestBatchTinyBufferFlood(t *testing.T) {
	set := patterns.FromStrings("x", "ab")
	m := NewVPatch(set, VOptions{})
	n := 3 * batchFlushCandidates
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = []byte("x") // one candidate + one match per buffer
	}
	c := metrics.Counters{LaneExact: true} // the watermark under test is the lane path's
	matches := 0
	m.ScanBatch(bufs, &c, func(buf int, mm patterns.Match) {
		if buf < 0 || buf >= n || mm.Pos != 0 {
			t.Fatalf("bad match: buf=%d pos=%d", buf, mm.Pos)
		}
		matches++
	})
	if matches != n {
		t.Fatalf("%d matches, want %d", matches, n)
	}
	if c.ShortCandidates != uint64(n) {
		t.Fatalf("ShortCandidates = %d, want %d", c.ShortCandidates, n)
	}
	if cap(m.builtinScratch().bShort) > 2*batchFlushCandidates {
		t.Fatalf("candidate array grew to %d entries: watermark not applied",
			cap(m.builtinScratch().bShort))
	}
}

// TestPackCursorRoundTrip guards the packed candidate encoding.
func TestPackCursorRoundTrip(t *testing.T) {
	for _, tc := range [][2]int32{{0, 0}, {1, 2}, {1 << 20, 1<<31 - 1}, {1<<31 - 1, 0}} {
		if b, p := vec.UnpackCursor(vec.PackCursor(tc[0], tc[1])); b != tc[0] || p != tc[1] {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", tc[0], tc[1], b, p)
		}
	}
}

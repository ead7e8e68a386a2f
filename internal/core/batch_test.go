package core

import (
	"testing"

	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
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
// vector engine (requested per scan and forced — a batch then runs the
// serial lane-exact scan per buffer), and every ablation variant must
// produce identical per-buffer matches.
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

	// The same matcher with lane-exact accounting: the vector engine.
	c := metrics.Counters{LaneExact: true}
	got := collectBatch(base, bufs, &c)
	for i := range bufs {
		if !patterns.EqualMatches(got[i], want[i]) {
			t.Fatalf("lane-exact: buffer %d: %d matches, want %d", i, len(got[i]), len(want[i]))
		}
	}
	if c.VectorIters == 0 {
		t.Fatal("lane-exact batch counted no vector blocks")
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

package core

import (
	"testing"

	"vpatch/internal/engine"
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

// collectBatch runs a batch scan and returns matches grouped by buffer.
func collectBatch(m engine.BatchEngine, bufs [][]byte, c *metrics.Counters) [][]patterns.Match {
	out := make([][]patterns.Match, len(bufs))
	m.ScanBatchScratch(m.NewScratch(), bufs, c, func(b int, mm patterns.Match) {
		out[b] = append(out[b], mm)
	})
	return out
}

// TestBatchVariantsAgree: every rendition of the one scan loop — S-PATCH
// and V-PATCH, fused and lane-exact (requested per scan or pinned by an
// option), rounds that span buffers and rounds cut at a tiny chunk —
// reports per buffer exactly the naive reference's matches.
func TestBatchVariantsAgree(t *testing.T) {
	set := batchTestSet()
	bufs := [][]byte{
		[]byte("GET /attack-vector-long HTTP/1.1"),
		[]byte("x"),
		nil,
		[]byte("Host: ab"),
		traffic.Synthesize(traffic.ISCXDay2, 8<<10, 1, set),
		[]byte("ab"),
	}
	want := make([][]patterns.Match, len(bufs))
	for i, b := range bufs {
		want[i] = patterns.FindAllNaive(set, b)
	}

	cases := []struct {
		name string
		m    engine.BatchEngine
		lane bool // scan with Counters{LaneExact: true}
		ran  func(c *metrics.Counters) uint64
	}{
		{name: "vpatch", m: NewVPatch(set, VOptions{})},
		{name: "vpatch/lane-exact", m: NewVPatch(set, VOptions{}), lane: true,
			ran: func(c *metrics.Counters) uint64 { return c.VectorIters }},
		{name: "vpatch/no-merge", m: NewVPatch(set, VOptions{NoFilterMerge: true})},
		{name: "vpatch/branchy-f3", m: NewVPatch(set, VOptions{BranchyFilter3: true})},
		{name: "vpatch/width-4", m: NewVPatch(set, VOptions{Width: 4}), lane: true,
			ran: func(c *metrics.Counters) uint64 { return c.VectorIters }},
		{name: "vpatch/width-16", m: NewVPatch(set, VOptions{Width: 16}), lane: true,
			ran: func(c *metrics.Counters) uint64 { return c.VectorIters }},
		{name: "vpatch/tiny-chunk", m: NewVPatch(set, VOptions{ChunkSize: 64})},
		{name: "vpatch/small-filter-3", m: NewVPatch(set, VOptions{Filter3Log2Bits: 14})},
		{name: "spatch", m: NewSPatch(set, Options{})},
		{name: "spatch/lane-exact", m: NewSPatch(set, Options{}), lane: true,
			ran: func(c *metrics.Counters) uint64 { return c.Filter1Probes }},
		{name: "spatch/tiny-chunk", m: NewSPatch(set, Options{ChunkSize: 64})},
	}
	for _, tc := range cases {
		var c *metrics.Counters
		if tc.lane {
			c = &metrics.Counters{LaneExact: true}
		}
		got := collectBatch(tc.m, bufs, c)
		for i := range bufs {
			if !patterns.EqualMatches(got[i], want[i]) {
				t.Fatalf("%s: buffer %d: %d matches, want %d", tc.name, i, len(got[i]), len(want[i]))
			}
		}
		if tc.ran != nil && tc.ran(c) == 0 {
			t.Fatalf("%s: the lane-exact rendition did not run", tc.name)
		}
	}
}

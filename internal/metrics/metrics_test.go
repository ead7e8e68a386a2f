package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestAddAccumulatesEveryField(t *testing.T) {
	a := Counters{
		BytesScanned: 1, Filter1Probes: 2, Filter2Probes: 3, Filter3Probes: 4,
		VectorIters: 5, Gathers: 6, MergedGathers: 7, Filter3Blocks: 8,
		Filter3UsefulLanes: 9, ShortCandidates: 10, LongCandidates: 11,
		HTProbes: 12, VerifyAttempts: 13, VerifyBytes: 14, Matches: 15,
		FilteringNs: 16, VerifyNs: 17, OtherNs: 18, DFAAccesses: 19,
		FlowsEvicted: 22, BytesDropped: 23, PeakFlows: 24,
		SkippedBytes: 25, AccelChances: 26, AccelRuns: 27,
	}
	var c Counters
	c.Add(&a)
	c.Add(&a)
	if c != (Counters{
		BytesScanned: 2, Filter1Probes: 4, Filter2Probes: 6, Filter3Probes: 8,
		VectorIters: 10, Gathers: 12, MergedGathers: 14, Filter3Blocks: 16,
		Filter3UsefulLanes: 18, ShortCandidates: 20, LongCandidates: 22,
		HTProbes: 24, VerifyAttempts: 26, VerifyBytes: 28, Matches: 30,
		FilteringNs: 32, VerifyNs: 34, OtherNs: 36, DFAAccesses: 38,
		// PeakFlows is a high-water mark: Add merges it by max.
		FlowsEvicted: 44, BytesDropped: 46, PeakFlows: 24,
		SkippedBytes: 50, AccelChances: 52, AccelRuns: 54,
	}) {
		t.Fatalf("Add result wrong: %+v", c)
	}
}

func TestReset(t *testing.T) {
	c := Counters{Matches: 5, FilteringNs: 10}
	c.Reset()
	if c != (Counters{}) {
		t.Fatalf("Reset left %+v", c)
	}
}

func TestUsefulLaneFrac(t *testing.T) {
	c := Counters{Filter3Blocks: 10, Filter3UsefulLanes: 40}
	if got := c.UsefulLaneFrac(8); got != 0.5 {
		t.Fatalf("UsefulLaneFrac = %v, want 0.5", got)
	}
	var zero Counters
	if zero.UsefulLaneFrac(8) != 0 {
		t.Fatal("zero counters must report 0")
	}
	if c.UsefulLaneFrac(0) != 0 {
		t.Fatal("W=0 must report 0")
	}
}

func TestFilteringTimeFrac(t *testing.T) {
	c := Counters{FilteringNs: 30, VerifyNs: 60, OtherNs: 10}
	if got := c.FilteringTimeFrac(); got != 0.3 {
		t.Fatalf("FilteringTimeFrac = %v, want 0.3", got)
	}
	var zero Counters
	if zero.FilteringTimeFrac() != 0 {
		t.Fatal("untimed counters must report 0")
	}
}

func TestCandidateFrac(t *testing.T) {
	c := Counters{BytesScanned: 100, ShortCandidates: 5, LongCandidates: 15}
	if got := c.CandidateFrac(); got != 0.2 {
		t.Fatalf("CandidateFrac = %v, want 0.2", got)
	}
	var zero Counters
	if zero.CandidateFrac() != 0 {
		t.Fatal("zero scan must report 0")
	}
}

func TestThroughput(t *testing.T) {
	// 1 GB in 1 second = 8 Gbps.
	if got := Throughput(1e9, 1e9); got != 8 {
		t.Fatalf("Throughput = %v, want 8", got)
	}
	if Throughput(100, 0) != 0 || Throughput(100, -5) != 0 {
		t.Fatal("non-positive time must yield 0")
	}
}

func TestStopwatch(t *testing.T) {
	sw := Start()
	ns := sw.Stop()
	if ns < 0 {
		t.Fatalf("negative elapsed %d", ns)
	}
}

func TestStringMentionsKeyFields(t *testing.T) {
	c := Counters{Matches: 42, BytesScanned: 1000}
	s := c.String()
	if !strings.Contains(s, "matches=42") || !strings.Contains(s, "bytes=1000") {
		t.Fatalf("String() = %q", s)
	}
}

// TestBatchLaneFrac pins the shim the frozen bench compiles against: 0,
// whatever the counters hold.
func TestBatchLaneFrac(t *testing.T) {
	c := Counters{VectorIters: 10, Filter3Blocks: 10, Filter3UsefulLanes: 60}
	if got := c.BatchLaneFrac(8); got != 0 {
		t.Fatalf("BatchLaneFrac = %f, want 0", got)
	}
}

func TestSkipFrac(t *testing.T) {
	var c Counters
	if c.SkipFrac() != 0 {
		t.Fatal("empty counters should report 0")
	}
	c.BytesScanned = 100
	c.SkippedBytes = 25
	if c.SkipFrac() != 0.25 {
		t.Fatalf("SkipFrac = %v", c.SkipFrac())
	}
	if !strings.Contains(c.String(), "skipped=25") {
		t.Fatalf("String missing skip counters: %s", c.String())
	}
}

// fillDistinct sets every field of a Counters to a distinct nonzero
// value via reflection, so transfer audits notice a field that any
// merge path forgot (a freshly added field starts at the zero value on
// the destination and the mismatch is reported by name).
func fillDistinct(c *Counters) {
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(1000 + i))
		case reflect.Int64:
			f.SetInt(int64(2000 + i))
		case reflect.Bool:
			// LaneExact is a request, not a count: Add and the atomic
			// path leave it alone.
		default:
			panic("unhandled Counters field kind " + f.Kind().String())
		}
	}
}

// diffFields reports the names of fields that differ between a and b.
func diffFields(t *testing.T, a, b Counters) []string {
	t.Helper()
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var bad []string
	for i := 0; i < va.NumField(); i++ {
		if !va.Field(i).Equal(vb.Field(i)) {
			bad = append(bad, va.Type().Field(i).Name)
		}
	}
	return bad
}

// TestAddCoversEveryField: Counters.Add into a zero destination must
// transfer every field (PeakFlows merges by max, which from zero is a
// plain copy). Guards against a new counter field silently dropping out
// of the merge path.
func TestAddCoversEveryField(t *testing.T) {
	var src, dst Counters
	fillDistinct(&src)
	dst.Add(&src)
	if bad := diffFields(t, dst, src); len(bad) > 0 {
		t.Fatalf("Counters.Add dropped fields: %v", bad)
	}
}

// TestAtomicRoundTripCoversEveryField: AddCounters followed by Snapshot
// must reproduce every field, so the published view never silently
// omits a counter.
func TestAtomicRoundTripCoversEveryField(t *testing.T) {
	var src Counters
	fillDistinct(&src)
	var a Atomic
	a.AddCounters(&src)
	if bad := diffFields(t, a.Snapshot(), src); len(bad) > 0 {
		t.Fatalf("Atomic round-trip dropped fields: %v", bad)
	}
}

// TestAtomicPeakFlowsMax: PeakFlows is a high-water mark and must merge
// by max through the atomic path, like Counters.Add.
func TestAtomicPeakFlowsMax(t *testing.T) {
	var a Atomic
	a.AddCounters(&Counters{PeakFlows: 9})
	a.AddCounters(&Counters{PeakFlows: 4})
	if got := a.Snapshot().PeakFlows; got != 9 {
		t.Fatalf("PeakFlows = %d, want 9 (max-merge)", got)
	}
}

// TestAtomicConcurrentScrape: concurrent AddCounters and Snapshot must
// be race-free (run under -race) and every snapshot must observe
// monotonically non-decreasing totals.
func TestAtomicConcurrentScrape(t *testing.T) {
	var a Atomic
	const writers, rounds = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			delta := Counters{BytesScanned: 3, Matches: 1, SkippedBytes: 2}
			for i := 0; i < rounds; i++ {
				a.AddCounters(&delta)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prev Counters
	for {
		snap := a.Snapshot()
		if snap.BytesScanned < prev.BytesScanned || snap.Matches < prev.Matches {
			t.Errorf("snapshot went backwards: %+v after %+v", snap, prev)
		}
		prev = snap
		select {
		case <-done:
			final := a.Snapshot()
			if final.BytesScanned != writers*rounds*3 || final.Matches != writers*rounds {
				t.Fatalf("final snapshot %+v, want %d bytes / %d matches",
					final, writers*rounds*3, writers*rounds)
			}
			return
		default:
		}
	}
}

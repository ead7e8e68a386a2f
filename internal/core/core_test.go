package core

import (
	"math/rand"
	"testing"

	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

func scanS(m *SPatch, input []byte) []patterns.Match {
	var out []patterns.Match
	m.Scan(input, nil, func(mm patterns.Match) { out = append(out, mm) })
	return out
}

func scanV(m *VPatch, input []byte) []patterns.Match {
	var out []patterns.Match
	m.Scan(input, nil, func(mm patterns.Match) { out = append(out, mm) })
	return out
}

// checkAll verifies S-PATCH and V-PATCH (all widths, fused and
// lane-exact, and every ablation mode) against the naive reference.
func checkAll(t *testing.T, set *patterns.Set, input []byte) {
	t.Helper()
	want := patterns.FindAllNaive(set, input)
	sp := NewSPatch(set, Options{})
	if got := scanS(sp, input); !patterns.EqualMatches(got, want) {
		t.Fatalf("S-PATCH disagrees with naive: got %d want %d", len(got), len(want))
	}
	if got := sp.laneCollect(t, input); !patterns.EqualMatches(got, want) {
		t.Fatalf("lane-exact S-PATCH disagrees with naive: got %d want %d", len(got), len(want))
	}
	for _, w := range []int{4, 8, 16} {
		vp := NewVPatch(set, VOptions{Width: w})
		if got := scanV(vp, input); !patterns.EqualMatches(got, want) {
			t.Fatalf("V-PATCH W=%d disagrees with naive: got %d want %d", w, len(got), len(want))
		}
		if got := vp.laneCollect(t, input); !patterns.EqualMatches(got, want) {
			t.Fatalf("lane-exact V-PATCH W=%d disagrees with naive: got %d want %d", w, len(got), len(want))
		}
	}
	variants := []VOptions{
		{NoFilterMerge: true},
		{BranchyFilter3: true},
		{NoFilterMerge: true, BranchyFilter3: true},
	}
	for _, opt := range variants {
		if got := scanV(NewVPatch(set, opt), input); !patterns.EqualMatches(got, want) {
			t.Fatalf("V-PATCH %+v disagrees with naive: got %d want %d", opt, len(got), len(want))
		}
	}
}

func TestBasicMatching(t *testing.T) {
	checkAll(t, patterns.FromStrings("GET", "HTTP/1.1", "attack", "ab"),
		[]byte("GET /attack HTTP/1.1 abattackab"))
}

func TestShortPatternClasses(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte{0x90}, false, patterns.ProtoGeneric)
	set.Add([]byte("ab"), false, patterns.ProtoGeneric)
	set.Add([]byte("xyz"), false, patterns.ProtoGeneric)
	input := append([]byte("ab xyz abxyz"), 0x90, 0x90)
	checkAll(t, set, input)
}

func TestLongPatterns(t *testing.T) {
	checkAll(t, patterns.FromStrings("attack", "attribute", "atta", "longerpatternhere"),
		[]byte("xx attribute attack atta longerpatternhere attrib"))
}

func TestOverlapping(t *testing.T) {
	checkAll(t, patterns.FromStrings("aa", "aaa", "aaaa"), []byte("aaaaaaa"))
	checkAll(t, patterns.FromStrings("abab", "ba"), []byte("abababab"))
}

func TestNocase(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte("GeT"), true, patterns.ProtoHTTP)
	set.Add([]byte("Cmd.EXE"), true, patterns.ProtoHTTP)
	set.Add([]byte("CaSe"), false, patterns.ProtoHTTP)
	checkAll(t, set, []byte("GET get CMD.EXE cmd.exe CaSe case gEt"))
}

func TestMatchAtFinalBytes(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte{0xAB}, false, patterns.ProtoGeneric)
	set.Add([]byte("zz"), false, patterns.ProtoGeneric)
	set.Add([]byte("tail"), false, patterns.ProtoGeneric)
	checkAll(t, set, append([]byte("xxx tail zz"), 0xAB))
	checkAll(t, set, []byte("tail"))
	checkAll(t, set, []byte("zz"))
	checkAll(t, set, []byte{0xAB})
}

func TestEmptyCases(t *testing.T) {
	if n := len(scanS(NewSPatch(patterns.NewSet(), Options{}), []byte("abc"))); n != 0 {
		t.Fatalf("empty set matched %d", n)
	}
	if n := len(scanV(NewVPatch(patterns.FromStrings("ab"), VOptions{}), nil)); n != 0 {
		t.Fatalf("empty input matched %d", n)
	}
}

func TestTinyInputsAllWidths(t *testing.T) {
	set := patterns.FromStrings("ab", "bc", "abcd")
	for size := 0; size < 25; size++ {
		input := make([]byte, size)
		for i := range input {
			input[i] = byte('a' + i%4)
		}
		checkAll(t, set, input)
	}
}

func TestChunkBoundarySpanningMatches(t *testing.T) {
	// A long pattern placed to straddle every chunk boundary must still
	// be found: filtering windows read past the chunk edge.
	set := patterns.FromStrings("SPANNING-PATTERN")
	chunk := 256
	input := make([]byte, 4*chunk)
	for i := range input {
		input[i] = 'x'
	}
	for _, pos := range []int{chunk - 1, chunk - 8, 2*chunk - 3, 3*chunk - 15} {
		copy(input[pos:], "SPANNING-PATTERN")
	}
	want := patterns.FindAllNaive(set, input)
	if len(want) == 0 {
		t.Fatal("test setup broken: no ground-truth matches")
	}
	if got := scanS(NewSPatch(set, Options{ChunkSize: chunk}), input); !patterns.EqualMatches(got, want) {
		t.Fatalf("S-PATCH chunked: got %d want %d", len(got), len(want))
	}
	if got := scanV(NewVPatch(set, VOptions{ChunkSize: chunk}), input); !patterns.EqualMatches(got, want) {
		t.Fatalf("V-PATCH chunked: got %d want %d", len(got), len(want))
	}
}

func TestChunkSizesEquivalent(t *testing.T) {
	set := patterns.GenerateS1(7).Subset(100, 4)
	input := traffic.Synthesize(traffic.ISCXDay2, 8<<10, 6, set)
	want := scanS(NewSPatch(set, Options{}), input)
	for _, chunk := range []int{64, 333, 1 << 10, 1 << 20} {
		if got := scanS(NewSPatch(set, Options{ChunkSize: chunk}), input); !patterns.EqualMatches(got, want) {
			t.Fatalf("S-PATCH chunk=%d diverges", chunk)
		}
		if got := scanV(NewVPatch(set, VOptions{ChunkSize: chunk}), input); !patterns.EqualMatches(got, want) {
			t.Fatalf("V-PATCH chunk=%d diverges", chunk)
		}
	}
}

// V-PATCH's filtering must be lane-for-lane identical to S-PATCH's:
// same candidate positions, in the same order.
func TestCandidateArraysIdentical(t *testing.T) {
	set := patterns.GenerateS1(3).Subset(300, 2)
	input := traffic.Synthesize(traffic.ISCXDay6, 32<<10, 9, set)
	sShort, sLong := NewSPatch(set, Options{}).FilterOnly(input, nil)
	for _, w := range []int{4, 8, 16} {
		vShort, vLong := NewVPatch(set, VOptions{Width: w}).FilterOnly(input, nil, true)
		if !equalInt32(sShort, vShort) {
			t.Fatalf("W=%d: A_short diverges (%d vs %d entries)", w, len(sShort), len(vShort))
		}
		if !equalInt32(sLong, vLong) {
			t.Fatalf("W=%d: A_long diverges (%d vs %d entries)", w, len(sLong), len(vLong))
		}
	}
	// Ablation variants must not change filtering semantics either.
	for _, opt := range []VOptions{{NoFilterMerge: true}, {BranchyFilter3: true}} {
		vShort, vLong := NewVPatch(set, opt).FilterOnly(input, nil, true)
		if !equalInt32(sShort, vShort) || !equalInt32(sLong, vLong) {
			t.Fatalf("ablation %+v changes candidates", opt)
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFilterOnlyNoStoresCountsOnly(t *testing.T) {
	set := patterns.GenerateS1(5).Subset(200, 3)
	input := traffic.Synthesize(traffic.ISCXDay2, 16<<10, 2, set)
	m := NewVPatch(set, VOptions{})
	cStores, cNoStores := metrics.Counters{LaneExact: true}, metrics.Counters{LaneExact: true}
	short, long := m.FilterOnly(input, &cStores, true)
	s2, l2 := m.FilterOnly(input, &cNoStores, false)
	if s2 != nil || l2 != nil {
		t.Fatal("no-store mode must not return positions")
	}
	if len(short) == 0 && len(long) == 0 {
		t.Fatal("test needs some candidates")
	}
	// The filter work itself is identical.
	if cStores.Gathers != cNoStores.Gathers || cStores.VectorIters != cNoStores.VectorIters {
		t.Fatalf("no-store mode changed filter work: %d/%d gathers", cStores.Gathers, cNoStores.Gathers)
	}
}

func TestRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		set := patterns.NewSet()
		n := 1 + rng.Intn(15)
		for i := 0; i < n; i++ {
			l := 1 + rng.Intn(8)
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			set.Add(p, rng.Intn(5) == 0, patterns.ProtoGeneric)
		}
		input := make([]byte, 400)
		for j := range input {
			input[j] = byte('a' + rng.Intn(3))
		}
		checkAll(t, set, input)
	}
}

func TestRealisticTrafficAgainstNaive(t *testing.T) {
	set := patterns.GenerateS1(41).Subset(80, 6)
	input := traffic.Synthesize(traffic.ISCXDay2, 32<<10, 13, set)
	checkAll(t, set, input)
}

func TestAgainstNaiveWithInjectedMatches(t *testing.T) {
	set := patterns.GenerateS1(43).Subset(50, 7)
	input := traffic.Random(16<<10, 3)
	traffic.InjectMatches(input, set, 0.3, 5)
	checkAll(t, set, input)
}

func TestSPatchCounters(t *testing.T) {
	set := patterns.FromStrings("GET", "longpattern")
	m := NewSPatch(set, Options{})
	c := metrics.Counters{LaneExact: true} // probe counts are emulation-only
	input := []byte("GET /longpattern GET")
	m.Scan(input, &c, nil)
	if c.BytesScanned != uint64(len(input)) {
		t.Fatalf("BytesScanned = %d", c.BytesScanned)
	}
	if c.Filter1Probes == 0 || c.Filter2Probes == 0 {
		t.Fatal("filter probes not counted")
	}
	if c.Matches != 3 {
		t.Fatalf("Matches = %d, want 3", c.Matches)
	}
	if c.ShortCandidates == 0 || c.LongCandidates == 0 {
		t.Fatalf("candidates not recorded: %+v", c)
	}
	if c.FilteringNs <= 0 || c.VerifyNs <= 0 {
		t.Fatal("phase times not recorded")
	}
}

func TestVPatchStructuralCounters(t *testing.T) {
	set := patterns.FromStrings("GET", "longpattern")
	m := NewVPatch(set, VOptions{Width: 8})
	c := metrics.Counters{LaneExact: true}
	input := make([]byte, 8192)
	m.Scan(input, &c, nil)
	// One merged gather per vector iteration; W positions per iteration.
	if c.MergedGathers != c.VectorIters {
		t.Fatalf("merged gathers %d != iters %d", c.MergedGathers, c.VectorIters)
	}
	if c.Filter1Probes != c.VectorIters*8+extraScalarProbes(&c) {
		// Scalar tail contributes a handful of probes; just sanity-bound.
		t.Logf("filter1 probes %d, iters %d", c.Filter1Probes, c.VectorIters)
	}
	if c.Gathers < c.MergedGathers {
		t.Fatal("gather accounting inconsistent")
	}
}

func extraScalarProbes(c *metrics.Counters) uint64 { return c.Filter1Probes - c.VectorIters*8 }

func TestVPatchNoFilterMergeDoublesGathers(t *testing.T) {
	set := patterns.FromStrings("xyzw")
	input := traffic.Synthesize(traffic.ISCXDay2, 16<<10, 1, nil)
	merged := metrics.Counters{LaneExact: true}
	var unmerged metrics.Counters // the ablation itself selects the engine
	NewVPatch(set, VOptions{}).FilterOnly(input, &merged, true)
	NewVPatch(set, VOptions{NoFilterMerge: true}).FilterOnly(input, &unmerged, true)
	// Without merging, the filter-1/2 stage needs 2 gathers per block
	// instead of 1 (filter-3 gathers unchanged).
	extraF3 := merged.Gathers - merged.MergedGathers
	if unmerged.Gathers != 2*merged.MergedGathers+extraF3 {
		t.Fatalf("unmerged gathers %d, want %d", unmerged.Gathers, 2*merged.MergedGathers+extraF3)
	}
	if unmerged.MergedGathers != 0 {
		t.Fatal("unmerged mode still counts merged gathers")
	}
}

func TestUsefulLaneFractionTracked(t *testing.T) {
	set := patterns.GenerateS1(11).WebSubset()
	input := traffic.Synthesize(traffic.ISCXDay2, 64<<10, 3, set)
	c := metrics.Counters{LaneExact: true}
	NewVPatch(set, VOptions{}).FilterOnly(input, &c, true)
	if c.Filter3Blocks == 0 {
		t.Fatal("filter-3 never executed on realistic traffic")
	}
	frac := c.UsefulLaneFrac(8)
	if frac <= 0 || frac > 1 {
		t.Fatalf("useful-lane fraction %v out of range", frac)
	}
}

func TestFilteringRejectsMostRandomInput(t *testing.T) {
	// Paper: ~95% of random input is filtered out.
	set := patterns.GenerateS1(1).WebSubset()
	m := NewSPatch(set, Options{})
	var c metrics.Counters
	m.Scan(traffic.Random(256<<10, 9), &c, nil)
	if got := c.CandidateFrac(); got > 0.2 {
		t.Fatalf("candidate fraction %.3f on random input; filters not selective", got)
	}
}

func TestAccessorsAndDefaults(t *testing.T) {
	m := NewVPatch(patterns.FromStrings("abcd"), VOptions{})
	if m.Width() != 8 {
		t.Fatalf("default width %d, want 8", m.Width())
	}
	if m.chunk != DefaultChunkSize {
		t.Fatalf("default chunk %d", m.chunk)
	}
	if n := m.fs.SizeBytes(); n != 16384+16384 {
		t.Fatalf("filter footprint %d, want 32 KB (merged 16K + filter3 16K)", n)
	}
	if m.set.Len() != 1 {
		t.Fatal("pattern set not kept")
	}
}

func TestScanReusableAcrossInputs(t *testing.T) {
	// Matchers must be reusable: scanning twice yields identical results.
	set := patterns.FromStrings("dup", "licate")
	m := NewVPatch(set, VOptions{})
	in := []byte("duplicate duplicate")
	a := scanV(m, in)
	b := scanV(m, in)
	if !patterns.EqualMatches(a, b) {
		t.Fatal("second scan diverged")
	}
}

func BenchmarkSPatch2KRealistic(b *testing.B) {
	set := patterns.GenerateS1(1).WebSubset()
	m := NewSPatch(set, Options{})
	input := traffic.Synthesize(traffic.ISCXDay2, 1<<20, 1, set)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(input, nil, nil)
	}
}

func BenchmarkVPatch2KRealistic(b *testing.B) {
	set := patterns.GenerateS1(1).WebSubset()
	m := NewVPatch(set, VOptions{})
	input := traffic.Synthesize(traffic.ISCXDay2, 1<<20, 1, set)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(input, nil, nil)
	}
}

func BenchmarkVPatchFilteringOnly(b *testing.B) {
	set := patterns.GenerateS1(1).WebSubset()
	m := NewVPatch(set, VOptions{})
	input := traffic.Synthesize(traffic.ISCXDay2, 1<<20, 1, set)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FilterOnly(input, nil, false)
	}
}

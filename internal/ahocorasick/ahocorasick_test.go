package ahocorasick

import (
	"math/rand"
	"testing"

	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

func scan(m *Matcher, input []byte) []patterns.Match {
	var out []patterns.Match
	m.Scan(input, nil, func(mm patterns.Match) { out = append(out, mm) })
	return out
}

func checkAgainstNaive(t *testing.T, set *patterns.Set, input []byte, budget int) {
	t.Helper()
	m := build(set, budget)
	got := scan(m, input)
	want := patterns.FindAllNaive(set, input)
	if !patterns.EqualMatches(got, want) {
		t.Fatalf("AC (full=%v folded=%v) disagrees with naive: got %d matches, want %d",
			m.next != nil, m.folded, len(got), len(want))
	}
}

func TestClassicExample(t *testing.T) {
	// The canonical Aho-Corasick example set.
	set := patterns.FromStrings("he", "she", "his", "hers")
	input := []byte("ushers")
	m := Build(set)
	got := scan(m, input)
	want := []patterns.Match{
		{PatternID: 1, Pos: 1}, // she
		{PatternID: 0, Pos: 2}, // he
		{PatternID: 3, Pos: 2}, // hers
	}
	if !patterns.EqualMatches(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestOverlappingAndNested(t *testing.T) {
	checkAgainstNaive(t, patterns.FromStrings("aa", "aaa", "aaaa"), []byte("aaaaaa"), maxMatrixBytes)
	checkAgainstNaive(t, patterns.FromStrings("ab", "ba"), []byte("ababab"), maxMatrixBytes)
	checkAgainstNaive(t, patterns.FromStrings("abc", "bc", "c"), []byte("abcabc"), maxMatrixBytes)
}

func TestFailureChainOutputs(t *testing.T) {
	// "abcd" matching must also report the suffix patterns via failure
	// links merged at build time.
	set := patterns.FromStrings("abcd", "bcd", "cd", "d")
	checkAgainstNaive(t, set, []byte("xxabcdxx"), maxMatrixBytes)
}

func TestEmptyInputAndNoPatterns(t *testing.T) {
	m := Build(patterns.NewSet())
	if n := len(scan(m, []byte("anything"))); n != 0 {
		t.Fatalf("empty set matched %d", n)
	}
	m2 := Build(patterns.FromStrings("abc"))
	if n := len(scan(m2, nil)); n != 0 {
		t.Fatalf("empty input matched %d", n)
	}
}

func TestBinaryPatterns(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte{0x00, 0x01}, false, patterns.ProtoGeneric)
	set.Add([]byte{0xFF}, false, patterns.ProtoGeneric)
	set.Add([]byte{0x00, 0x01, 0x02, 0x03}, false, patterns.ProtoGeneric)
	input := []byte{0x00, 0x01, 0x02, 0x03, 0xFF, 0x00, 0x01}
	checkAgainstNaive(t, set, input, maxMatrixBytes)
}

func TestNocaseMixedSet(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte("GET"), false, patterns.ProtoHTTP)    // case-sensitive
	set.Add([]byte("get"), false, patterns.ProtoHTTP)    // case-sensitive, collides when folded
	set.Add([]byte("Host"), true, patterns.ProtoHTTP)    // nocase
	set.Add([]byte("cmd.exe"), true, patterns.ProtoHTTP) // nocase long
	input := []byte("GET get GeT HOST host CMD.EXE Cmd.Exe")
	checkAgainstNaive(t, set, input, maxMatrixBytes)
	m := Build(set)
	if !m.folded {
		t.Fatal("mixed set must build a folded automaton")
	}
}

func TestPureCaseSensitiveSkipsFolding(t *testing.T) {
	m := Build(patterns.FromStrings("GET", "Host"))
	if m.folded {
		t.Fatal("pure case-sensitive set must not fold")
	}
	var c metrics.Counters
	m.Scan([]byte("GET Host get"), &c, nil)
	if c.VerifyAttempts != 0 {
		t.Fatal("unfolded automaton must not verify")
	}
	if c.Matches != 2 {
		t.Fatalf("Matches = %d, want 2", c.Matches)
	}
}

func TestSparseEqualsFull(t *testing.T) {
	set := patterns.GenerateS1(3).Subset(300, 1)
	input := traffic.Synthesize(traffic.ISCXDay2, 64<<10, 5, set)
	full := Build(set)
	sparse := build(set, 0)
	if full.next == nil || sparse.next != nil {
		t.Fatalf("representations: full=%v sparse=%v", full.next != nil, sparse.next != nil)
	}
	a := scan(full, input)
	b := scan(sparse, input)
	if !patterns.EqualMatches(a, b) {
		t.Fatalf("sparse (%d) and full (%d) disagree", len(b), len(a))
	}
}

func TestSparseFallbackOnBudget(t *testing.T) {
	set := patterns.FromStrings("abcdefgh", "ijklmnop")
	// 17 states * 1 KB > 4 KB budget.
	m := build(set, 4<<10)
	if m.next != nil {
		t.Fatal("small budget did not force sparse representation")
	}
	checkAgainstNaive(t, set, []byte("xxabcdefghxxijklmnop"), 4<<10)
}

func TestStatesCount(t *testing.T) {
	// Trie of "ab","ac" = root + a + b + c = 4 states.
	m := Build(patterns.FromStrings("ab", "ac"))
	if n := len(m.outStart) - 1; n != 4 {
		t.Fatalf("states = %d, want 4", n)
	}
}

func TestMemoryFootprintRepresentations(t *testing.T) {
	set := patterns.GenerateS1(1).Subset(200, 2)
	full := Build(set)
	sparse := build(set, 0)
	if full.MemoryFootprint() != (len(full.outStart)-1)*1024 {
		t.Fatalf("full footprint %d != states*1KB", full.MemoryFootprint())
	}
	if sparse.MemoryFootprint() >= full.MemoryFootprint() {
		t.Fatalf("sparse footprint %d not smaller than full %d",
			sparse.MemoryFootprint(), full.MemoryFootprint())
	}
}

func TestCounters(t *testing.T) {
	m := Build(patterns.FromStrings("abc"))
	var c metrics.Counters
	input := []byte("zabcz")
	m.Scan(input, &c, nil)
	if c.BytesScanned != 5 {
		t.Fatalf("BytesScanned = %d", c.BytesScanned)
	}
	if c.DFAAccesses != 5 {
		t.Fatalf("DFAAccesses = %d, want one per byte", c.DFAAccesses)
	}
	if c.Matches != 1 {
		t.Fatalf("Matches = %d", c.Matches)
	}
}

func TestRandomAgainstNaiveBothRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		set := patterns.NewSet()
		n := 1 + rng.Intn(15)
		for i := 0; i < n; i++ {
			l := 1 + rng.Intn(6)
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			set.Add(p, rng.Intn(5) == 0, patterns.ProtoGeneric)
		}
		input := make([]byte, 300)
		for j := range input {
			input[j] = byte('a' + rng.Intn(3))
		}
		checkAgainstNaive(t, set, input, maxMatrixBytes)
		checkAgainstNaive(t, set, input, 0)
	}
}

func TestRealisticTrafficAgainstNaive(t *testing.T) {
	set := patterns.GenerateS1(11).Subset(60, 3)
	input := traffic.Synthesize(traffic.ISCXDay6, 16<<10, 21, set)
	checkAgainstNaive(t, set, input, maxMatrixBytes)
}

func TestScanNilEmit(t *testing.T) {
	m := Build(patterns.FromStrings("ab"))
	var c metrics.Counters
	m.Scan([]byte("abab"), &c, nil) // must not panic
	if c.Matches != 2 {
		t.Fatalf("Matches = %d", c.Matches)
	}
}

func BenchmarkScanFullMatrix2K(b *testing.B) {
	set := patterns.GenerateS1(1).WebSubset()
	m := Build(set)
	input := traffic.Synthesize(traffic.ISCXDay2, 1<<20, 1, set)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(input, nil, nil)
	}
}

func BenchmarkScanSparse2K(b *testing.B) {
	set := patterns.GenerateS1(1).WebSubset()
	m := build(set, 0)
	input := traffic.Synthesize(traffic.ISCXDay2, 1<<20, 1, set)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(input, nil, nil)
	}
}

// TestBuildAllocs bounds Build's allocations: the construction works in
// a fixed number of flat arrays, so the count does not grow with the
// number of states (45k full-matrix states for S1, 405k sparse states
// for S2).
func TestBuildAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		set  *patterns.Set
		full bool
	}{{"S1", patterns.GenerateS1(1), true}, {"S2", patterns.GenerateS2(1), false}} {
		if m := Build(c.set); (m.next != nil) != c.full {
			t.Fatalf("%s: full matrix = %v, want %v", c.name, m.next != nil, c.full)
		}
		n := testing.AllocsPerRun(1, func() { Build(c.set) })
		t.Logf("%s: %.0f allocations", c.name, n)
		if n > 64 {
			t.Errorf("%s: Build made %.0f allocations, want <= 64", c.name, n)
		}
	}
}

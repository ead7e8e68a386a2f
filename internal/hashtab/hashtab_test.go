package hashtab

import (
	"math/rand"
	"testing"

	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

// verifyEverywhere runs Verify{Short,Long}At at every position and
// collects matches — brute-force use of the tables, independent of any
// filter. Against FindAllNaive this isolates verification correctness.
func verifyEverywhere(v *Verifier, input []byte) []patterns.Match {
	var out []patterns.Match
	emit := func(m patterns.Match) { out = append(out, m) }
	for pos := 0; pos < len(input); pos++ {
		v.VerifyShortAt(input, pos, nil, emit)
		v.VerifyLongAt(input, pos, nil, emit)
	}
	return out
}

func TestVerifierMatchesNaive(t *testing.T) {
	set := patterns.FromStrings("a\x90", "GET", "HTTP/1.1", "abcd", "bcda", "dabc", "xyz")
	// Note: "a" alone would match everywhere; use realistic lengths 2+
	// here and dedicated tests for len-1 below.
	input := []byte("GET /abcdabc HTTP/1.1\r\nxyzdabc")
	got := verifyEverywhere(Build(set), input)
	want := patterns.FindAllNaive(set, input)
	if !patterns.EqualMatches(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestOneBytePatterns(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte{0x90}, false, patterns.ProtoGeneric)
	input := []byte{0x00, 0x90, 0x90, 0x41, 0x90}
	got := verifyEverywhere(Build(set), input)
	want := patterns.FindAllNaive(set, input)
	if !patterns.EqualMatches(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if len(got) != 3 {
		t.Fatalf("expected 3 matches, got %d", len(got))
	}
}

func TestTwoAndThreeBytePatterns(t *testing.T) {
	set := patterns.FromStrings("ab", "abc", "bc", "cab")
	input := []byte("abcabcab")
	got := verifyEverywhere(Build(set), input)
	want := patterns.FindAllNaive(set, input)
	if !patterns.EqualMatches(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestLongPatternsSharedPrefix(t *testing.T) {
	// Same 4-byte prefix, different tails: bucket must distinguish them.
	set := patterns.FromStrings("attack", "attribute", "attain", "atta")
	input := []byte("the attribute of an attack is to attain atta")
	got := verifyEverywhere(Build(set), input)
	want := patterns.FindAllNaive(set, input)
	if !patterns.EqualMatches(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestNocaseShortAndLong(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte("GeT"), true, patterns.ProtoHTTP)     // short nocase
	set.Add([]byte("Cmd.EXE"), true, patterns.ProtoHTTP) // long nocase
	set.Add([]byte("GET"), false, patterns.ProtoHTTP)    // exact
	input := []byte("GET get CMD.exe cmd.EXE GEt")
	got := verifyEverywhere(Build(set), input)
	want := patterns.FindAllNaive(set, input)
	if !patterns.EqualMatches(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestNocaseOneByte(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte("Q"), true, patterns.ProtoGeneric)
	input := []byte("qQxq")
	got := verifyEverywhere(Build(set), input)
	if len(got) != 3 {
		t.Fatalf("nocase 1-byte: got %d matches, want 3", len(got))
	}
}

func TestEndOfInputBoundaries(t *testing.T) {
	set := patterns.FromStrings("ab", "abcd", "d\x80")
	// Positions near the end: 2-byte pattern at len-2, 4-byte at len-4.
	input := []byte("xxabcd")
	got := verifyEverywhere(Build(set), input)
	want := patterns.FindAllNaive(set, input)
	if !patterns.EqualMatches(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// A 1-byte input must not panic and must match nothing here.
	if n := len(verifyEverywhere(Build(set), []byte("a"))); n != 0 {
		t.Fatalf("1-byte input produced %d matches", n)
	}
}

func TestEmptyInputAndEmptySet(t *testing.T) {
	v := Build(patterns.NewSet())
	if n := len(verifyEverywhere(v, []byte("anything"))); n != 0 {
		t.Fatalf("empty set matched %d times", n)
	}
	v2 := Build(patterns.FromStrings("abc"))
	if n := len(verifyEverywhere(v2, nil)); n != 0 {
		t.Fatalf("empty input matched %d times", n)
	}
}

func TestCountersPopulated(t *testing.T) {
	set := patterns.FromStrings("abcd", "ab")
	v := Build(set)
	var c metrics.Counters
	input := []byte("abcdabcd")
	for pos := 0; pos < len(input); pos++ {
		v.VerifyShortAt(input, pos, &c, nil)
		v.VerifyLongAt(input, pos, &c, nil)
	}
	if c.HTProbes == 0 {
		t.Fatal("no hash-table probes counted")
	}
	if c.VerifyAttempts == 0 || c.VerifyBytes == 0 {
		t.Fatal("no verification attempts counted")
	}
	if c.Matches != 4 { // "abcd" x2 + "ab" x2
		t.Fatalf("Matches = %d, want 4", c.Matches)
	}
}

func TestNilEmitJustCounts(t *testing.T) {
	set := patterns.FromStrings("zz")
	v := Build(set)
	var c metrics.Counters
	v.VerifyShortAt([]byte("zz"), 0, &c, nil) // must not panic
	if c.Matches != 1 {
		t.Fatalf("Matches = %d", c.Matches)
	}
}

func TestRandomSetsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		set := patterns.NewSet()
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			l := 1 + rng.Intn(8)
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(4)) // tiny alphabet → many collisions
			}
			set.Add(p, rng.Intn(4) == 0, patterns.ProtoGeneric)
		}
		input := make([]byte, 200)
		for j := range input {
			input[j] = byte('a' + rng.Intn(4))
		}
		got := verifyEverywhere(Build(set), input)
		want := patterns.FindAllNaive(set, input)
		if !patterns.EqualMatches(got, want) {
			t.Fatalf("trial %d: %d matches vs naive %d", trial, len(got), len(want))
		}
	}
}

func TestMemoryFootprintGrowsWithPatterns(t *testing.T) {
	small := Build(patterns.GenerateS1(1).Subset(100, 1))
	large := Build(patterns.GenerateS1(1))
	if small.MemoryFootprint() >= large.MemoryFootprint() {
		t.Fatalf("footprint small=%d large=%d", small.MemoryFootprint(), large.MemoryFootprint())
	}
}

// maxChain returns the longest bucket chain over all of v's tables:
// verification cost per candidate is bounded by chain length.
func maxChain(v *Verifier) int {
	m := 0
	for _, t := range []*chainTable{&v.longCS.prefix4, &v.longCI.prefix4, &v.shortCS.prefix2, &v.shortCI.prefix2} {
		for s := 0; s+1 < len(t.starts); s++ {
			m = max(m, int(t.starts[s+1]-t.starts[s]))
		}
	}
	return m
}

func TestMaxChainReasonable(t *testing.T) {
	// Distinct 4-byte prefixes must disperse: build patterns with unique
	// prefixes and check no bucket degenerates.
	set := patterns.NewSet()
	rng := rand.New(rand.NewSource(5))
	seen := map[uint32]bool{}
	for set.Len() < 5000 {
		var p [8]byte
		rng.Read(p[:])
		key := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
		if seen[key] {
			continue
		}
		seen[key] = true
		set.Add(p[:], false, patterns.ProtoGeneric)
	}
	v := Build(set)
	if mc := maxChain(v); mc > 16 {
		t.Fatalf("max chain %d over distinct keys: hash distribution is degenerate", mc)
	}
	// On a realistic set chains exist (shared prefixes are real) but must
	// stay far below the set size.
	s2 := Build(patterns.GenerateS2(1))
	if mc := maxChain(s2); mc == 0 || mc > s2.set.Len()/10 {
		t.Fatalf("S2 max chain %d out of sane range", mc)
	}
}

func TestSetAccessor(t *testing.T) {
	set := patterns.FromStrings("x\x81")
	if Build(set).set != set {
		t.Fatal("the verifier must keep the source set")
	}
}

func BenchmarkVerifyLongAtMiss(b *testing.B) {
	v := Build(patterns.GenerateS1(1))
	input := []byte("zzzzzzzzzzzzzzzz")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.VerifyLongAt(input, i%8, nil, nil)
	}
}

func BenchmarkVerifyShortAtHit(b *testing.B) {
	v := Build(patterns.FromStrings("GE", "GET", "HT"))
	input := []byte("GET HTTP")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.VerifyShortAt(input, 0, nil, nil)
	}
}

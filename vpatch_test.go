package vpatch

import (
	"math/rand"
	"testing"

	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

var allAlgorithms = []Algorithm{
	AlgoVPatch, AlgoSPatch, AlgoDFC, AlgoVectorDFC, AlgoAhoCorasick,
}

// newSession compiles set and opens one scanning session on the engine:
// what the single-goroutine tests below scan with.
func newSession(set *PatternSet, opt Options) (*Session, error) {
	e, err := Compile(set, opt)
	if err != nil {
		return nil, err
	}
	return e.NewSession(), nil
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Fatal("nil set accepted")
	}
	if _, err := Compile(NewPatternSet(), Options{VectorWidth: 5}); err == nil {
		t.Fatal("width 5 accepted")
	}
	if _, err := Compile(NewPatternSet(), Options{Algorithm: Algorithm(42)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	set := PatternSetFromStrings("GET", "attack", "ab", "HTTP/1.1")
	input := []byte("GET /attack HTTP/1.1 abattack")
	want := patterns.FindAllNaive(set, input)
	for _, alg := range allAlgorithms {
		m, err := newSession(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got, err := FindAll(set, input, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
			t.Fatalf("%v disagrees with naive: %d vs %d matches", alg, len(got), len(want))
		}
		if m.Algorithm() != alg {
			t.Fatalf("Algorithm() = %v, want %v", m.Algorithm(), alg)
		}
		if m.Set() != set {
			t.Fatalf("%v: Set() does not return the source set", alg)
		}
	}
}

func TestAllAlgorithmsAgreeOnRealisticTraffic(t *testing.T) {
	set := patterns.GenerateS1(7).Subset(120, 3)
	input := traffic.Synthesize(traffic.ISCXDay2, 32<<10, 5, set)
	reference, err := FindAll(set, input, Options{Algorithm: AlgoAhoCorasick})
	if err != nil {
		t.Fatal(err)
	}
	if len(reference) == 0 {
		t.Fatal("test needs matches")
	}
	for _, alg := range allAlgorithms {
		got, err := FindAll(set, input, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !patterns.EqualMatches(got, append([]Match(nil), reference...)) {
			t.Fatalf("%v disagrees: %d vs %d matches", alg, len(got), len(reference))
		}
	}
}

func TestVectorWidths(t *testing.T) {
	set := PatternSetFromStrings("needle", "na")
	input := []byte("nanananeedleedle")
	want, _ := FindAll(set, input, Options{Algorithm: AlgoSPatch})
	for _, w := range []int{4, 8, 16} {
		for _, alg := range []Algorithm{AlgoVPatch, AlgoVectorDFC} {
			got, err := FindAll(set, input, Options{Algorithm: alg, VectorWidth: w})
			if err != nil {
				t.Fatalf("%v W=%d: %v", alg, w, err)
			}
			if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
				t.Fatalf("%v W=%d disagrees", alg, w)
			}
		}
	}
}

func TestCount(t *testing.T) {
	set := PatternSetFromStrings("ab")
	m, err := newSession(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Count(m, []byte("ababab")); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

func TestCountersAccumulate(t *testing.T) {
	set := PatternSetFromStrings("xy")
	m, _ := newSession(set, Options{Algorithm: AlgoDFC})
	var c Counters
	m.Scan([]byte("xyxy"), &c, nil)
	first := c.Matches
	m.Scan([]byte("xyxy"), &c, nil)
	if c.Matches != 2*first {
		t.Fatalf("counters must accumulate: %d then %d", first, c.Matches)
	}
	if c.BytesScanned != 8 {
		t.Fatalf("BytesScanned = %d", c.BytesScanned)
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, alg := range allAlgorithms {
		if alg.String() == "" {
			t.Fatalf("algorithm %d has empty name", alg)
		}
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm must still format")
	}
}

func TestNocaseThroughPublicAPI(t *testing.T) {
	set := NewPatternSet()
	set.Add([]byte("Select"), true, ProtoHTTP)
	set.Add([]byte("UNION"), false, ProtoHTTP)
	input := []byte("sELECT a UNION select union")
	want := patterns.FindAllNaive(set, input)
	for _, alg := range allAlgorithms {
		got, err := FindAll(set, input, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
			t.Fatalf("%v nocase disagreement", alg)
		}
	}
}

func TestFindAllSorted(t *testing.T) {
	set := PatternSetFromStrings("aa", "a\x80")
	got, err := FindAll(set, []byte("aaa\x80"), Options{Algorithm: AlgoDFC})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Pos < got[i-1].Pos {
			t.Fatal("FindAll output not sorted")
		}
	}
}

func TestFuzzAllAlgorithmsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		set := NewPatternSet()
		for i := 0; i < 1+rng.Intn(10); i++ {
			l := 1 + rng.Intn(6)
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			set.Add(p, rng.Intn(4) == 0, ProtoGeneric)
		}
		input := make([]byte, 200)
		for j := range input {
			input[j] = byte('a' + rng.Intn(3))
		}
		want := patterns.FindAllNaive(set, input)
		for _, alg := range allAlgorithms {
			got, err := FindAll(set, input, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
				t.Fatalf("trial %d: %v disagrees with naive", trial, alg)
			}
		}
	}
}

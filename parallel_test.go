package vpatch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

func TestFindAllParallelEqualsSequential(t *testing.T) {
	set := patterns.GenerateS1(3).Subset(100, 7)
	input := traffic.Synthesize(traffic.ISCXDay2, 64<<10, 11, set)
	want, err := FindAll(set, input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7, 16} {
		got, err := FindAllParallel(set, input, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
			t.Fatalf("workers=%d: %d matches vs sequential %d", workers, len(got), len(want))
		}
	}
}

func TestParallelBoundarySpanningMatches(t *testing.T) {
	// Place a long pattern across every shard boundary for 4 workers.
	set := PatternSetFromStrings("BOUNDARY-SPANNING-PATTERN")
	input := make([]byte, 4096)
	for i := range input {
		input[i] = '.'
	}
	shard := (len(input) + 3) / 4
	for w := 1; w < 4; w++ {
		copy(input[w*shard-10:], "BOUNDARY-SPANNING-PATTERN")
	}
	want, _ := FindAll(set, input, Options{})
	if len(want) != 3 {
		t.Fatalf("setup: %d matches", len(want))
	}
	got, err := FindAllParallel(set, input, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
		t.Fatalf("boundary matches lost or duplicated: %d vs %d", len(got), len(want))
	}
}

func TestParallelEdgeCases(t *testing.T) {
	set := PatternSetFromStrings("ab")
	if _, err := FindAllParallel(nil, []byte("ab"), Options{}, 2); err == nil {
		t.Fatal("nil set accepted")
	}
	if _, err := FindAllParallel(set, []byte("ab"), Options{VectorWidth: 5}, 2); err == nil {
		t.Fatal("bad options accepted")
	}
	got, err := FindAllParallel(set, nil, Options{}, 4)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v %v", got, err)
	}
	// More workers than bytes.
	got, err = FindAllParallel(set, []byte("abab"), Options{}, 64)
	if err != nil || len(got) != 2 {
		t.Fatalf("tiny input: %v %v", got, err)
	}
	// workers <= 0 selects a default.
	if _, err := FindAllParallel(set, []byte("ab"), Options{}, -1); err != nil {
		t.Fatal(err)
	}
}

func TestCountParallel(t *testing.T) {
	set := patterns.GenerateS1(9).Subset(80, 1)
	input := traffic.Synthesize(traffic.ISCXDay6, 32<<10, 5, set)
	m, _ := newSession(set, Options{})
	want := Count(m, input)
	for _, workers := range []int{1, 4, 9} {
		got, err := CountParallel(set, input, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: count %d vs %d", workers, got, want)
		}
	}
	if _, err := CountParallel(nil, nil, Options{}, 2); err == nil {
		t.Fatal("nil set accepted")
	}
	if _, err := CountParallel(set, input, Options{Algorithm: Algorithm(77)}, 2); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

// Property: random inputs, random worker counts, random algorithms —
// parallel always equals sequential.
func TestParallelProperty(t *testing.T) {
	set := PatternSetFromStrings("aa", "abc", "cab", "aaaa")
	f := func(seed int64, workersRaw uint8, algRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		input := make([]byte, 200+rng.Intn(2000))
		for i := range input {
			input[i] = byte('a' + rng.Intn(3))
		}
		alg := []Algorithm{AlgoVPatch, AlgoSPatch, AlgoDFC, AlgoAhoCorasick}[algRaw%4]
		workers := 1 + int(workersRaw%8)
		want, err := FindAll(set, input, Options{Algorithm: alg})
		if err != nil {
			return false
		}
		got, err := FindAllParallel(set, input, Options{Algorithm: alg}, workers)
		if err != nil {
			return false
		}
		return patterns.EqualMatches(got, append([]Match(nil), want...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFindAllParallel(b *testing.B) {
	f := benchFixtures()
	// A larger buffer than the shared fixtures, so the scan dominates
	// the one-time compilation CountParallel performs.
	data := traffic.Synthesize(traffic.ISCXDay2, 16<<20, 1, f.s1web)
	for _, workers := range []int{1, 2, 4} {
		b.Run("workers"+itoa(workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := CountParallel(f.s1web, data, Options{}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

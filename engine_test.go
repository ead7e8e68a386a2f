package vpatch

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
	"vpatch/internal/vec"
)

// TestEngineSharedAcrossSessions is the concurrency contract of the
// Engine/Session split: one compiled Engine, 8 goroutines each scanning
// the same input through a private Session, and every goroutine must
// produce byte-identical matches to a serial FindAll. Run under -race
// this also proves the compiled state is never written during a scan,
// for all five algorithms.
func TestEngineSharedAcrossSessions(t *testing.T) {
	set := patterns.GenerateS1(7).Subset(120, 3)
	input := traffic.Synthesize(traffic.ISCXDay2, 64<<10, 5, set)
	const goroutines = 8

	for _, alg := range allAlgorithms {
		eng, err := Compile(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		want := eng.FindAll(input)
		if len(want) == 0 {
			t.Fatalf("%v: test needs matches", alg)
		}

		results := make([][]Match, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := eng.NewSession()
				var out []Match
				// Two scans per session: sessions must also be reusable.
				for rep := 0; rep < 2; rep++ {
					out = out[:0]
					s.Scan(input, nil, func(m Match) { out = append(out, m) })
				}
				patterns.SortMatches(out)
				results[g] = out
			}(g)
		}
		wg.Wait()

		for g, got := range results {
			if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
				t.Fatalf("%v: goroutine %d diverged: %d matches vs serial %d",
					alg, g, len(got), len(want))
			}
		}
	}
}

// TestEngineScanConcurrent exercises the pooled Engine.Scan convenience
// path from many goroutines at once (no explicit sessions).
func TestEngineScanConcurrent(t *testing.T) {
	set := patterns.GenerateS1(11).Subset(80, 2)
	input := traffic.Synthesize(traffic.ISCXDay6, 32<<10, 9, set)
	for _, alg := range allAlgorithms {
		eng, err := Compile(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		want := Count(eng, input)
		var wg sync.WaitGroup
		counts := make([]uint64, 8)
		for g := range counts {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				counts[g] = Count(eng, input)
			}(g)
		}
		wg.Wait()
		for g, n := range counts {
			if n != want {
				t.Fatalf("%v: goroutine %d counted %d, want %d", alg, g, n, want)
			}
		}
	}
}

// TestEngineParallelReuse: one Engine, repeated FindAllParallel /
// CountParallel calls — compiled once, identical to serial.
func TestEngineParallelReuse(t *testing.T) {
	set := patterns.GenerateS1(3).Subset(100, 7)
	input := traffic.Synthesize(traffic.ISCXDay2, 64<<10, 11, set)
	eng, err := Compile(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.FindAll(input)
	for _, workers := range []int{1, 2, 5, 8} {
		got := eng.FindAllParallel(input, workers)
		if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
			t.Fatalf("workers=%d: %d matches vs serial %d", workers, len(got), len(want))
		}
		if n := eng.CountParallel(input, workers); n != uint64(len(want)) {
			t.Fatalf("workers=%d: count %d vs %d", workers, n, len(want))
		}
	}
}

func TestSessionExposesEngineIdentity(t *testing.T) {
	set := PatternSetFromStrings("needle")
	eng, err := Compile(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := eng.NewSession()
	if m.Algorithm() != AlgoVPatch || m.Set() != set || m.Engine() != eng {
		t.Fatal("session does not expose engine identity")
	}
	// Sessions feed the stream scanner.
	var hits int
	sc, err := m.NewStreamScanner(func(StreamMatch) { hits++ })
	if err != nil {
		t.Fatal(err)
	}
	sc.Write([]byte("....nee"))
	sc.Write([]byte("dle...."))
	if hits != 1 {
		t.Fatalf("stream scan through session found %d matches, want 1", hits)
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"vpatch": AlgoVPatch, "V-PATCH": AlgoVPatch,
		"spatch": AlgoSPatch, "S-Patch": AlgoSPatch,
		"dfc": AlgoDFC, "DFC": AlgoDFC,
		"vectordfc": AlgoVectorDFC, "Vector-DFC": AlgoVectorDFC, "vdfc": AlgoVectorDFC,
		"ac": AlgoAhoCorasick, "Aho-Corasick": AlgoAhoCorasick, "ahocorasick": AlgoAhoCorasick,
		" vpatch ": AlgoVPatch,
	}
	for name, want := range cases {
		got, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := ParseAlgorithm("snort"); err == nil || errors.Is(err, ErrRetiredAlgorithm) {
		t.Fatalf("unknown name: err = %v, want a non-retired error", err)
	}
	// The retired engines' names fail with ErrRetiredAlgorithm, naming
	// the engine.
	for name, canon := range map[string]string{
		"wumanber": "Wu-Manber", "Wu-Manber": "Wu-Manber", "wm": "Wu-Manber",
		"ffbf": "FFBF", "FFBF": "FFBF",
	} {
		_, err := ParseAlgorithm(name)
		if !errors.Is(err, ErrRetiredAlgorithm) || !strings.Contains(err.Error(), canon) {
			t.Fatalf("ParseAlgorithm(%q) = %v, want ErrRetiredAlgorithm naming %s", name, err, canon)
		}
	}
	// Round-trip: every algorithm's String form parses back to itself.
	for _, alg := range allAlgorithms {
		got, err := ParseAlgorithm(alg.String())
		if err != nil || got != alg {
			t.Fatalf("round-trip %v: got %v, err %v", alg, got, err)
		}
	}
}

func TestPatternSetMaxLen(t *testing.T) {
	if n := NewPatternSet().MaxLen(); n != 0 {
		t.Fatalf("empty set MaxLen = %d, want 0", n)
	}
	if n := PatternSetFromStrings("ab", "abcdef", "x").MaxLen(); n != 6 {
		t.Fatalf("MaxLen = %d, want 6", n)
	}
}

// BenchmarkParallelCompileStrategy measures the end-to-end (compile +
// scan) cost of one sharded parallel job, comparing the Engine API's
// compile-once sharing against the seed's behavior of compiling a
// private matcher inside every worker. Aho-Corasick makes the compiled
// state large enough that per-worker duplication dominates; V-PATCH
// shows the effect on the paper's default engine.
func BenchmarkParallelCompileStrategy(b *testing.B) {
	f := benchFixtures()
	data := f.data["ISCX-day2"]
	const workers = 4

	for _, alg := range []Algorithm{AlgoAhoCorasick, AlgoVPatch} {
		opt := Options{Algorithm: alg}
		b.Run(alg.String()+"/compile-once", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				eng, err := Compile(f.s1web, opt)
				if err != nil {
					b.Fatal(err)
				}
				eng.CountParallel(data, workers)
			}
		})
		b.Run(alg.String()+"/compile-per-worker", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				seedCountParallel(b, f.s1web, data, opt, workers)
			}
		})
	}
}

// seedCountParallel replicates the seed's CountParallel: every worker
// compiles its own matcher from the set on every call.
func seedCountParallel(b *testing.B, set *PatternSet, input []byte, opt Options, workers int) uint64 {
	maxLen := set.MaxLen()
	if maxLen < 1 {
		maxLen = 1
	}
	counts := make([]uint64, workers)
	var wg sync.WaitGroup
	shard := (len(input) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * shard
		end := start + shard
		if end > len(input) {
			end = len(input)
		}
		if start >= end {
			continue
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			m, err := newSession(set, opt) // the seed's per-worker compile
			if err != nil {
				b.Error(err)
				return
			}
			readEnd := end + maxLen - 1
			if readEnd > len(input) {
				readEnd = len(input)
			}
			limit := int32(end - start)
			n := uint64(0)
			m.Scan(input[start:readEnd], nil, func(mm Match) {
				if mm.Pos < limit {
					n++
				}
			})
			counts[w] = n
		}(w, start, end)
	}
	wg.Wait()
	total := uint64(0)
	for _, n := range counts {
		total += n
	}
	return total
}

// TestActiveKernelIsWhatEnginesRun: ActiveKernel names the kernel every
// auto-dispatched filtering engine on this host runs, compiled or
// loaded, for any rule set — so vpatch_kernel_info, vpatch-serve's
// reload log line and the bench's extract_kernel fingerprint cannot name
// a kernel no engine runs. (Under -tags purego all of them say "swar".)
func TestActiveKernelIsWhatEnginesRun(t *testing.T) {
	want := ActiveKernel().String()
	if !vec.Available(vec.KernelAVX2) && want != "swar" {
		t.Fatalf("ActiveKernel() = %s on a host without avx2", want)
	}
	set := patterns.GenerateS1(1)
	for _, alg := range []Algorithm{AlgoVPatch, AlgoSPatch} {
		eng, err := Compile(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := eng.Info().Kernel; got != want {
			t.Errorf("%v compiled: Info().Kernel = %q, ActiveKernel() = %q", alg, got, want)
		}
		loaded, err := Deserialize(eng.Serialize())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := loaded.Info().Kernel; got != want {
			t.Errorf("%v loaded: Info().Kernel = %q, ActiveKernel() = %q", alg, got, want)
		}
	}
}

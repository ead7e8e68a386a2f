package vpatch

import (
	"testing"
	"time"

	"vpatch/internal/patterns"
)

// Startup benchmarks: compiling an ET-open-scale rule set (S2, ~20k
// patterns) from scratch versus loading its precompiled database.
// Aho-Corasick — the Snort production baseline, whose automaton
// construction walks a pointer-chasing trie over every pattern byte —
// is the one engine whose database stores its compiled state, and it
// loads an order of magnitude faster than it compiles. V-PATCH's
// database holds only its patterns: its filters build in about a
// millisecond, faster than a decoder could validate stored ones, so
// its Load is a pattern-set decode plus a Compile.

// benchStartupSet is built once and shared across the startup benches.
var benchStartupSet *PatternSet

func startupSet(b *testing.B) *PatternSet {
	if benchStartupSet == nil {
		benchStartupSet = patterns.GenerateS2(1)
	}
	return benchStartupSet
}

func BenchmarkStartup(b *testing.B) {
	for _, alg := range []Algorithm{AlgoVPatch, AlgoAhoCorasick} {
		set := startupSet(b)
		eng, err := Compile(set, Options{Algorithm: alg})
		if err != nil {
			b.Fatal(err)
		}
		blob, err := eng.Serialize()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg.String()+"/Compile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(set, Options{Algorithm: alg}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(alg.String()+"/Load", func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				if _, err := Deserialize(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStartupSpeedup measures compile and load back to back in
// one run and reports the ratio directly (compile-ms, load-ms,
// speedup-x), so the headline number survives benchtime=1x smoke runs
// without cross-benchmark arithmetic. Aho-Corasick is the algorithm
// the criterion targets: the automaton build is the expensive compile
// this format amortizes away.
func BenchmarkStartupSpeedup(b *testing.B) {
	set := startupSet(b)
	eng, err := Compile(set, Options{Algorithm: AlgoAhoCorasick})
	if err != nil {
		b.Fatal(err)
	}
	blob, err := eng.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	var compileNs, loadNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := Compile(set, Options{Algorithm: AlgoAhoCorasick}); err != nil {
			b.Fatal(err)
		}
		compileNs += time.Since(t0).Nanoseconds()
		t0 = time.Now()
		if _, err := Deserialize(blob); err != nil {
			b.Fatal(err)
		}
		loadNs += time.Since(t0).Nanoseconds()
	}
	n := float64(b.N)
	b.ReportMetric(float64(compileNs)/n/1e6, "compile-ms")
	b.ReportMetric(float64(loadNs)/n/1e6, "load-ms")
	b.ReportMetric(float64(compileNs)/float64(loadNs), "speedup-x")
}

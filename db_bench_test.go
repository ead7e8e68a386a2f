package vpatch

import (
	"testing"

	"vpatch/internal/patterns"
)

// Startup benchmarks: compiling an ET-open-scale rule set (S2, ~20k
// patterns) from scratch versus loading its compiled database. A
// database holds only the pattern set, so Load is a pattern-set decode
// plus the same Compile: the gap between the two is the decode.

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
		blob := eng.Serialize()
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

package vpatch

import (
	"fmt"
	"testing"

	"vpatch/internal/core"
	"vpatch/internal/patterns"
)

// Sub-window inputs: every algorithm must handle buffers shorter than
// the 4-byte filter window (and shorter than the 2-byte direct-filter
// window) for every pattern-length mix — the boundary the fused
// kernels' mainEnd = n-3 arithmetic and scalarFilterPos guards protect.
// Each case is checked against the naive reference matcher.
// (allAlgorithms is shared with vpatch_test.go.)

func TestSubWindowInputsAllAlgorithms(t *testing.T) {
	sets := map[string]*PatternSet{
		"len1":  PatternSetFromStrings("a"),
		"len2":  PatternSetFromStrings("ab", "aa"),
		"len3":  PatternSetFromStrings("abc"),
		"len4":  PatternSetFromStrings("abcd"),
		"mixed": PatternSetFromStrings("a", "ab", "abc", "abcd", "bcdef"),
	}
	nocase := NewPatternSet()
	nocase.Add([]byte("a"), true, ProtoGeneric)
	nocase.Add([]byte("ab"), true, ProtoGeneric)
	nocase.Add([]byte("abcd"), true, ProtoGeneric)
	sets["nocase"] = nocase

	inputs := []string{
		"", "a", "b", "ab", "ba", "aa", "abc", "abcd", "abcde",
		"aab", "aba", "bab", "A", "AB", "ABCD", "aB", "Abcd",
		"xyz", "xa", "ax", "aaa", "abab",
	}
	for setName, set := range sets {
		for _, alg := range allAlgorithms {
			eng, err := Compile(set, Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%s: %v", setName, alg, err)
			}
			// S-PATCH and V-PATCH with acceleration on and off: the
			// boundary arithmetic differs.
			variants := map[string]*Engine{"default": eng}
			switch alg {
			case AlgoVPatch:
				variants["plain"] = &Engine{alg: alg, set: set, eng: core.NewVPatch(set, core.VOptions{NoAccel: true})}
			case AlgoSPatch:
				variants["plain"] = &Engine{alg: alg, set: set, eng: core.NewSPatch(set, core.Options{NoAccel: true})}
			}
			for _, in := range inputs {
				want := patterns.FindAllNaive(set, []byte(in))
				for variant, e := range variants {
					got := e.FindAll([]byte(in))
					if !patterns.EqualMatches(got, want) {
						t.Errorf("%s/%s/%s on %q: got %v, want %v",
							setName, alg, variant, in, got, want)
					}
				}
			}
		}
	}
}

// TestSubWindowBatch drives the same boundary inputs through ScanBatch
// in one call per algorithm (tiny buffers exercise the batch lane
// refill and fallback paths at the same boundaries).
func TestSubWindowBatch(t *testing.T) {
	set := PatternSetFromStrings("a", "ab", "abc", "abcd")
	bufs := [][]byte{{}, []byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"), []byte("xa"), []byte("abcde")}
	for _, alg := range allAlgorithms {
		eng, err := Compile(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		eng.NewSession().ScanBatch(bufs, nil, func(buf int, m Match) {
			got = append(got, fmt.Sprintf("%d:%d@%d", buf, m.PatternID, m.Pos))
		})
		var want []string
		for bi, b := range bufs {
			for _, m := range patterns.FindAllNaive(set, b) {
				want = append(want, fmt.Sprintf("%d:%d@%d", bi, m.PatternID, m.Pos))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: batch %d matches, want %d", alg, len(got), len(want))
		}
		seen := map[string]int{}
		for _, g := range got {
			seen[g]++
		}
		for _, w := range want {
			if seen[w] == 0 {
				t.Fatalf("%s: missing match %s", alg, w)
			}
			seen[w]--
		}
	}
}

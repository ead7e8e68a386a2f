package vpatch

import (
	"fmt"
	"testing"

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
			// Acceleration on and off: the boundary arithmetic differs.
			engPlain, err := Compile(set, Options{Algorithm: alg, NoAccel: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range inputs {
				want := patterns.FindAllNaive(set, []byte(in))
				for variant, e := range map[string]*Engine{"accel": eng, "plain": engPlain} {
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

// TestSubWindowInputsPerKernel repeats the sub-window sweep through the
// public ForceKernel option for the filtering engines: every available
// extract kernel must agree with the naive reference on buffers shorter
// than (and bracketing) its own block and lookahead geometry.
func TestSubWindowInputsPerKernel(t *testing.T) {
	set := PatternSetFromStrings("a", "ab", "abc", "abcd", "bcdef")
	inputs := []string{
		"", "a", "b", "ab", "ba", "abc", "abcd", "abcde",
		"xyzzyxa", "abababababab",
	}
	// Lengths around the AVX2 geometry (64-position blocks, 72 bytes
	// of lookahead) and half a block.
	for _, n := range []int{31, 32, 33, 63, 64, 65, 71, 72, 73, 100} {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abcdex"[i%6]
		}
		inputs = append(inputs, string(b))
	}
	for _, alg := range []Algorithm{AlgoVPatch, AlgoSPatch} {
		for _, k := range AvailableKernels() {
			eng, err := Compile(set, Options{Algorithm: alg, ForceKernel: k})
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, k, err)
			}
			if inf := eng.Info(); inf.Kernel != k.String() {
				t.Fatalf("%s forced %s but Info reports %q", alg, k, inf.Kernel)
			}
			for _, in := range inputs {
				want := patterns.FindAllNaive(set, []byte(in))
				got := eng.FindAll([]byte(in))
				if !patterns.EqualMatches(got, want) {
					t.Errorf("%s/%s on %q: got %v, want %v", alg, k, in, got, want)
				}
			}
		}
	}
	// Forcing a kernel the host lacks must fail at Compile, not degrade
	// silently.
	if !KernelAvailable(KernelAVX2) {
		if _, err := Compile(set, Options{ForceKernel: KernelAVX2}); err == nil {
			t.Error("Compile accepted unavailable kernel avx2")
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

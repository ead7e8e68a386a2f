package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vpatch/internal/engine"
	"vpatch/internal/patterns"
	"vpatch/internal/vec"
)

// The asm==SWAR parity property: every available kernel must produce
// candidate-for-candidate and match-for-match identical output to the
// lane-exact reference rendition (the paper-faithful emulated path,
// which never touches the accel layer or the native kernels), across
// widths, rule-set densities, buffer lengths below/at/above the kernel
// lookaheads, unaligned sub-slices, and batch mode. This is the oracle
// discipline PR 5 established for accel, extended to the assembly.

// genBinarySet derives a sparser full-alphabet set (random bytes), the
// counterpart of genSet's dense 3-letter sets: between them the accel
// table lands in index-byte, window and off modes.
func genBinarySet(seed int64) *patterns.Set {
	rng := rand.New(rand.NewSource(seed ^ 0x5EED))
	set := patterns.NewSet()
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(12)
		p := make([]byte, l)
		rng.Read(p)
		set.Add(p, rng.Intn(6) == 0, patterns.ProtoGeneric)
	}
	return set
}

// checkKernelParity runs one (set, input, width) case through every
// available kernel for both V-PATCH and S-PATCH and compares against
// the kernel-free references.
func checkKernelParity(t *testing.T, set *patterns.Set, input []byte, width int) {
	t.Helper()
	ref := NewVPatch(set, VOptions{Width: width})
	rs, rl := ref.laneFilter(t, input)
	refMatches := ref.laneCollect(t, input)
	spRef := NewSPatch(set, Options{ForceKernel: vec.KernelSWAR})
	sps, spl := spRef.FilterOnly(input, nil)
	for _, k := range vec.Kernels() {
		vp := NewVPatch(set, VOptions{Width: width, ForceKernel: k})
		ks, kl := vp.FilterOnly(input, nil, true)
		if !equalInt32(ks, rs) || !equalInt32(kl, rl) {
			t.Fatalf("kernel %v: V-PATCH candidates diverge from reference (len %d): short %d/%d long %d/%d",
				k, len(input), len(ks), len(rs), len(kl), len(rl))
		}
		if !patterns.EqualMatches(vp.collect(input), refMatches) {
			t.Fatalf("kernel %v: V-PATCH matches diverge from reference (len %d)", k, len(input))
		}
		sp := NewSPatch(set, Options{ForceKernel: k})
		ss, sl := sp.FilterOnly(input, nil)
		if !equalInt32(ss, sps) || !equalInt32(sl, spl) {
			t.Fatalf("kernel %v: S-PATCH candidates diverge from SWAR (len %d)", k, len(input))
		}
	}
}

func TestPropertyKernelParity(t *testing.T) {
	widths := []int{4, 8, 16}
	f := func(seed int64, sizeRaw uint16, off uint8) bool {
		width := widths[uint64(seed)%uint64(len(widths))]
		for _, set := range []*patterns.Set{genSet(seed), genBinarySet(seed)} {
			// Dense 3-letter traffic and uniform random traffic; lengths
			// sweep below the AVX2 lookahead and past the chunk
			// boundary arithmetic.
			n := int(sizeRaw % 3000)
			dense := genInput(seed, n)
			rng := rand.New(rand.NewSource(seed ^ 0xF00D))
			random := make([]byte, n)
			rng.Read(random)
			for _, input := range [][]byte{dense, random} {
				checkKernelParity(t, set, input, width)
				// Unaligned sub-slice: base pointers at every alignment.
				if o := int(off % 64); o < len(input) {
					checkKernelParity(t, set, input[o:], width)
				}
			}
		}
		return true
	}
	max := 40
	if testing.Short() {
		max = 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelParityShortInputs sweeps every length around the kernel
// block/lookahead boundaries (0..3x the AVX2 lookahead) — the exact
// off-by-one surface of the packEnd arithmetic.
func TestKernelParityShortInputs(t *testing.T) {
	set := genSet(3)
	bin := genBinarySet(3)
	rng := rand.New(rand.NewSource(99))
	for n := 0; n <= 3*vec.ViableLookahead; n++ {
		dense := genInput(int64(n), n)
		random := make([]byte, n)
		rng.Read(random)
		checkKernelParity(t, set, dense, 8)
		checkKernelParity(t, bin, random, 8)
	}
}

// TestKernelParityBatch drives the kernels through the native batch
// path: many small buffers sliced from one stream, compared against
// the naive per-buffer reference.
func TestKernelParityBatch(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		set := genSet(seed)
		stream := genInput(seed, 20000)
		rng := rand.New(rand.NewSource(seed))
		var bufs [][]byte
		for off := 0; off < len(stream); {
			l := rng.Intn(300)
			if off+l > len(stream) {
				l = len(stream) - off
			}
			bufs = append(bufs, stream[off:off+l])
			off += l + 1
		}
		type hit struct {
			buf int
			m   patterns.Match
		}
		var want []hit
		for bi, b := range bufs {
			for _, m := range patterns.FindAllNaive(set, b) {
				want = append(want, hit{bi, m})
			}
		}
		for _, k := range vec.Kernels() {
			vp := NewVPatch(set, VOptions{ForceKernel: k})
			scr := vp.NewScratch()
			var got []hit
			engine.ScanBatch(vp, scr, bufs, nil, func(buf int, m patterns.Match) {
				got = append(got, hit{buf, m})
			})
			if len(got) != len(want) {
				t.Fatalf("seed %d kernel %v: batch found %d matches, want %d", seed, k, len(got), len(want))
			}
			seen := map[hit]int{}
			for _, h := range got {
				seen[h]++
			}
			for _, h := range want {
				if seen[h] == 0 {
					t.Fatalf("seed %d kernel %v: batch missing %+v", seed, k, h)
				}
				seen[h]--
			}
		}
	}
}

// TestSubWindowInputsPerKernel sweeps the sub-window boundary inputs
// through every extract kernel this host runs, for S-PATCH and V-PATCH:
// each must agree with the naive reference on buffers shorter than (and
// bracketing) the kernel's own block and lookahead geometry, and report
// the kernel it runs.
func TestSubWindowInputsPerKernel(t *testing.T) {
	set := patterns.FromStrings("a", "ab", "abc", "abcd", "bcdef")
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
	for _, k := range vec.Kernels() {
		sp := NewSPatch(set, Options{ForceKernel: k})
		vp := NewVPatch(set, VOptions{ForceKernel: k})
		for _, e := range []struct {
			name string
			eng  interface {
				KernelInfo() string
				collect([]byte) []patterns.Match
			}
		}{{"S-PATCH", sp}, {"V-PATCH", vp}} {
			if got := e.eng.KernelInfo(); got != k.String() {
				t.Fatalf("%s forced %s but reports %q", e.name, k, got)
			}
			for _, in := range inputs {
				want := patterns.FindAllNaive(set, []byte(in))
				if got := e.eng.collect([]byte(in)); !patterns.EqualMatches(got, want) {
					t.Errorf("%s/%s on %q: got %v, want %v", e.name, k, in, got, want)
				}
			}
		}
	}
}

// TestKernelInfoResolution pins what the dispatch reports.
func TestKernelInfoResolution(t *testing.T) {
	set := genSet(5)
	auto := NewVPatch(set, VOptions{})
	if got, want := auto.KernelInfo(), vec.Best().String(); got != want {
		t.Fatalf("auto kernel resolved to %q, want %q", got, want)
	}
	for _, k := range vec.Kernels() {
		vp := NewVPatch(set, VOptions{ForceKernel: k})
		if got := vp.KernelInfo(); got != k.String() {
			t.Fatalf("forced %v reports %q", k, got)
		}
		sp := NewSPatch(set, Options{ForceKernel: k})
		if got := sp.KernelInfo(); got != k.String() {
			t.Fatalf("S-PATCH forced %v reports %q", k, got)
		}
	}
}

// FuzzKernelParity is the fuzz rendition of the parity property: for
// arbitrary byte inputs, every kernel must match the naive reference
// on two fixed rule sets (one dense lowercase, one binary).
func FuzzKernelParity(f *testing.F) {
	f.Add([]byte("abcabcbcbcab"))
	f.Add([]byte{})
	f.Add([]byte{0x61})
	f.Add(genInput(1, 500))
	f.Add([]byte{0xff, 0x00, 0x61, 0x62, 0x63, 0x64, 0xff, 0x00})
	sets := []*patterns.Set{
		patterns.FromStrings("a", "ab", "abc", "bca", "cab", "abcd", "bcabca"),
		genBinarySet(17),
	}
	engines := make([][]*VPatch, len(sets))
	for i, set := range sets {
		for _, k := range vec.Kernels() {
			engines[i] = append(engines[i], NewVPatch(set, VOptions{ForceKernel: k, ChunkSize: 512}))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, set := range sets {
			want := patterns.FindAllNaive(set, data)
			for j, vp := range engines[i] {
				got := vp.collect(data)
				patterns.SortMatches(got)
				if !patterns.EqualMatches(got, want) {
					t.Fatalf("set %d kernel %v: %d matches, naive %d", i, vec.Kernels()[j], len(got), len(want))
				}
			}
		}
	})
}

package vec

import (
	"math/rand"
	"testing"
)

// The assembly classifier is verified bit-for-bit against the portable
// reference on random bitmaps and random buffers at every alignment. On
// purego builds (or foreign architectures) the entry point *is* the
// reference, so the test still runs and pins the fallback path.

func TestKernelNames(t *testing.T) {
	for k, want := range map[KernelID]string{KernelAuto: "auto", KernelSWAR: "swar", KernelAVX2: "avx2"} {
		if k.String() != want {
			t.Fatalf("kernel %d is named %q, want %q", uint8(k), k.String(), want)
		}
	}
	if !Available(KernelSWAR) || !Available(KernelAuto) {
		t.Fatal("SWAR/auto must always be available")
	}
	if b := Best(); !Available(b) || b == KernelAuto {
		t.Fatalf("Best() = %v, not a concrete available kernel", b)
	}
	t.Logf("host kernels: %v (best %v)", Kernels(), Best())
}

func TestViableMask64MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var bitmap [1024]uint64
	for trial := 0; trial < 200; trial++ {
		// Sweep densities from almost-empty to almost-full.
		for i := range bitmap {
			bitmap[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			if trial%3 == 1 {
				bitmap[i] |= rng.Uint64()
			}
		}
		buf := make([]byte, 4096)
		if trial%2 == 0 {
			rng.Read(buf)
		} else {
			for i := range buf {
				buf[i] = byte("abc"[rng.Intn(3)]) // dense repeats
			}
		}
		for _, at := range []int{0, 1, 2, 3, 5, 7, 13, 63, 64, 100, len(buf) - ViableLookahead} {
			want := ViableMask64Ref(buf, at, &bitmap)
			got := ViableMask64(&buf[at], &bitmap[0])
			if got != want {
				t.Fatalf("trial %d at %d: ViableMask64 = %#x, ref %#x", trial, at, got, want)
			}
		}
	}
}

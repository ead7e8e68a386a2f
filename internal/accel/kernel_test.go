package accel

import (
	"math/rand"
	"testing"

	"vpatch/internal/vec"
)

// Every kernel's extract loop must compact the *identical* queue as
// the SWAR reference: same positions, same order. The test walks each
// kernel over shared random tables and buffers with its own geometry
// (so block starts differ) but compares against a per-position oracle,
// not against SWAR's block layout.
func TestExtractKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		// A synthetic viable-window predicate with tunable density.
		den := []int{1, 2, 5}[trial%3] // ~50%, 25%, ~3% pass rates
		var union [1 << 10]uint64
		for idx := uint32(0); idx < 1<<16; idx++ {
			if h := idx * 2654435761; h>>(32-5*uint(den)) == 0 || idx&0xff == 0x61 {
				union[idx>>6] |= 1 << (idx & 63)
			}
		}
		tab := BuildUnion(&union)
		buf := make([]byte, 3000+rng.Intn(2000))
		rng.Read(buf)
		for _, k := range vec.Kernels() {
			block, look := Geometry(k)
			start := rng.Intn(5)
			limit := len(buf) - look // last allowed block start
			var q [QueueLen]int32
			var got []int32
			i, w := start, 0
			for i <= limit {
				room := (QueueLen - block - w) / block
				if room == 0 {
					got = append(got, q[:w]...)
					w = 0
					continue
				}
				burstLimit := i + (room-1)*block
				if limit < burstLimit {
					burstLimit = limit
				}
				i, w = tab.ExtractKernel(k, buf, i, burstLimit, &q, w)
			}
			got = append(got, q[:w]...)

			var want []int32
			for p := start; p < i; p++ {
				idx := uint32(buf[p]) | uint32(buf[p+1])<<8
				if tab.ViableWindow(idx) {
					want = append(want, int32(p))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d kernel %v: %d queued positions, oracle %d", trial, k, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("trial %d kernel %v: queue[%d] = %d, oracle %d", trial, k, j, got[j], want[j])
				}
			}
		}
	}
}

// TestSelectKernel pins the dispatch policy on this host.
func TestSelectKernel(t *testing.T) {
	// A forced available kernel always wins; an unavailable one
	// degrades to SWAR instead of crashing.
	for _, k := range vec.Kernels() {
		if got := SelectKernel(k); got != k {
			t.Fatalf("SelectKernel(force %v) = %v", k, got)
		}
	}
	if !vec.Available(vec.KernelAVX2) {
		if got := SelectKernel(vec.KernelAVX2); got != vec.KernelSWAR {
			t.Fatalf("unavailable force resolved to %v, want swar", got)
		}
	}
	// Auto is the host's best kernel whatever the rule set: what an
	// engine runs is what vec.Best (vpatch.ActiveKernel) reports.
	if auto := SelectKernel(vec.KernelAuto); auto != vec.Best() {
		t.Fatalf("auto resolved to %v, host best is %v", auto, vec.Best())
	}
}

package experiments

import (
	"testing"

	"vpatch/internal/vec"
)

// The kernel sweep's shape, never its magnitudes: the SWAR baseline
// rows come first and carry speedup 1, every available kernel gets one
// row per traffic, an unavailable kernel is skipped, and every
// throughput cell was measured.
func TestKernelSweepShape(t *testing.T) {
	cfg := Config{TrafficBytes: 64 << 10, Seed: 1, Repeats: 1}
	unavailable := vec.KernelID(255)
	rows := KernelSweep(cfg, testSet(t), 8, []vec.KernelID{vec.KernelAVX2, unavailable, vec.KernelSWAR})

	traffics := []string{"clean-random", "iscx-day2"}
	kernels := vec.Kernels()
	if len(rows) != len(kernels)*len(traffics) {
		t.Fatalf("%d rows, want %d kernels x %d traffics", len(rows), len(kernels), len(traffics))
	}
	for i, r := range rows {
		k, tr := kernels[i/len(traffics)], traffics[i%len(traffics)]
		if r.Kernel != k.String() || r.Traffic != tr {
			t.Fatalf("row %d is %s/%s, want %s/%s", i, r.Kernel, r.Traffic, k, tr)
		}
		if r.FilterGbps <= 0 || r.ScanGbps <= 0 {
			t.Fatalf("row %d (%s/%s): empty throughput cell: %+v", i, r.Kernel, r.Traffic, r)
		}
		if k == vec.KernelSWAR && (r.FilterSpeedup != 1 || r.ScanSpeedup != 1) {
			t.Fatalf("SWAR baseline row %s has speedups %v/%v, want 1/1",
				r.Traffic, r.FilterSpeedup, r.ScanSpeedup)
		}
		if r.Kernel == unavailable.String() {
			t.Fatalf("unavailable kernel %s was run", unavailable)
		}
	}
}

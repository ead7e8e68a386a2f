package experiments

import (
	"fmt"
	"io"
	"time"

	"vpatch/internal/core"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
	"vpatch/internal/vec"
)

// The kernel A/B sweep: the experiment behind the native extract
// kernels. Every requested kernel scans the same two inputs — clean
// uniform-random traffic (the filtering round's best case and the
// dominant case in deployment) and a realistic ISCX-like trace — and
// reports filtering-round and full-scan wall-clock throughput plus the
// speedup over the SWAR reference kernel on the same traffic. This is
// the paper's §VI claim (the filtering round maps onto hardware
// gather/shuffle/movemask) measured directly.

// KernelSweepRow is one (kernel, traffic) cell.
type KernelSweepRow struct {
	// Kernel is the resolved extract kernel ("avx2", "swar").
	Kernel string `json:"kernel"`
	// Traffic names the input: "clean-random" or "iscx-day2".
	Traffic string `json:"traffic"`

	// FilterGbps is filtering-round-only throughput (candidate stores
	// included); ScanGbps is full scan throughput (filter + verify).
	FilterGbps float64 `json:"filter_gbps"`
	ScanGbps   float64 `json:"scan_gbps"`

	// Speedups relative to the SWAR row on the same traffic (1.0 for
	// the SWAR rows themselves; 0 when no SWAR baseline was measured).
	FilterSpeedup float64 `json:"filter_speedup_vs_swar"`
	ScanSpeedup   float64 `json:"scan_speedup_vs_swar"`
}

// KernelSweep measures each kernel's V-PATCH filtering-round and full
// scan throughput at vector width `width` (0 = 8). Kernels that are
// unavailable on the host are skipped. The SWAR kernel is always
// prepended as the speedup baseline.
func KernelSweep(cfg Config, set *patterns.Set, width int, kernels []vec.KernelID) []KernelSweepRow {
	cfg = cfg.withDefaults()
	if width == 0 {
		width = 8
	}
	traffics := []struct {
		name string
		data []byte
	}{
		{"clean-random", traffic.Random(cfg.TrafficBytes, cfg.Seed)},
		{"iscx-day2", traffic.Synthesize(traffic.ISCXDay2, cfg.TrafficBytes, cfg.Seed, set)},
	}
	// SWAR first, once, so every run carries its own baseline.
	run := []vec.KernelID{vec.KernelSWAR}
	for _, k := range kernels {
		if k != vec.KernelSWAR && vec.Available(k) {
			run = append(run, k)
		}
	}
	var rows []KernelSweepRow
	for _, k := range run {
		vp := core.NewVPatch(set, core.VOptions{Width: width, ForceKernel: k})
		for _, tr := range traffics {
			row := KernelSweepRow{Kernel: vp.KernelInfo(), Traffic: tr.name}
			for r := 0; r < cfg.Repeats; r++ {
				t0 := time.Now()
				vp.FilterOnly(tr.data, nil, true)
				if g := metrics.Throughput(uint64(len(tr.data)), time.Since(t0).Nanoseconds()); g > row.FilterGbps {
					row.FilterGbps = g
				}
				t0 = time.Now()
				vp.Scan(tr.data, nil, nil)
				if g := metrics.Throughput(uint64(len(tr.data)), time.Since(t0).Nanoseconds()); g > row.ScanGbps {
					row.ScanGbps = g
				}
			}
			rows = append(rows, row)
		}
	}
	base := map[string]KernelSweepRow{}
	for _, r := range rows {
		if r.Kernel == vec.KernelSWAR.String() {
			base[r.Traffic] = r
		}
	}
	for i := range rows {
		if b, ok := base[rows[i].Traffic]; ok {
			if b.FilterGbps > 0 {
				rows[i].FilterSpeedup = rows[i].FilterGbps / b.FilterGbps
			}
			if b.ScanGbps > 0 {
				rows[i].ScanSpeedup = rows[i].ScanGbps / b.ScanGbps
			}
		}
	}
	return rows
}

// PrintKernelSweep renders the sweep as an aligned text table.
func PrintKernelSweep(w io.Writer, title string, rows []KernelSweepRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s %-14s %12s %10s %14s %12s\n",
		"kernel", "traffic", "filter_gbps", "scan_gbps", "filter_vs_swar", "scan_vs_swar")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-14s %12.3f %10.3f %14.2f %12.2f\n",
			r.Kernel, r.Traffic, r.FilterGbps, r.ScanGbps, r.FilterSpeedup, r.ScanSpeedup)
	}
}

// WriteKernelSweepCSV exports the kernel sweep.
func WriteKernelSweepCSV(dir, name string, rows []KernelSweepRow) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Kernel, r.Traffic, ftoa(r.FilterGbps), ftoa(r.ScanGbps),
			ftoa(r.FilterSpeedup), ftoa(r.ScanSpeedup),
		})
	}
	return writeCSV(dir, name,
		[]string{"kernel", "traffic", "filter_gbps", "scan_gbps",
			"filter_speedup_vs_swar", "scan_speedup_vs_swar"}, out)
}

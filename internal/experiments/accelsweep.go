package experiments

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"vpatch/internal/core"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

// The acceleration density sweep: the experiment behind the hot-path
// skip-loop layer. Match fraction (how much of the input is covered by
// injected pattern occurrences) sweeps 0-100% while the buffer size
// sweeps packet-sized to chunk-sized, and each cell measures the
// accelerated fused kernels against the plain ones plus the skip ratio
// an instrumented run reports. The sweep demonstrates the two claims
// the layer makes: a large win on clean traffic (low match fraction —
// the dominant case in deployment), and graceful degradation at high
// density where the span governor and the compile-time density check
// bound the overhead instead of letting the skip loop thrash.

// AccelSweepRow is one (match fraction, buffer size) cell.
type AccelSweepRow struct {
	// MatchFrac is the fraction of input bytes covered by injected
	// matches; BufBytes the scan-call granularity.
	MatchFrac float64
	BufBytes  int

	PlainGbps float64
	AccelGbps float64
	Speedup   float64 // accelerated over plain, wall clock

	// SkipFrac is the fraction of scanned bytes the accelerator
	// skipped without probing (instrumented run); AccelRuns counts
	// skip invocations that cleared a run of at least 8 bytes.
	SkipFrac  float64
	AccelRuns uint64
}

// AccelSweep measures accelerated vs plain V-PATCH over random traffic
// with matchFracs of injected matches, scanned in buffers of each of
// bufSizes bytes, at vector width `width` (0 = 8).
func AccelSweep(cfg Config, set *patterns.Set, matchFracs []float64, bufSizes []int, width int) []AccelSweepRow {
	cfg = cfg.withDefaults()
	if width == 0 {
		width = 8
	}
	accel := core.NewVPatch(set, core.VOptions{Width: width})
	plain := core.NewVPatch(set, core.VOptions{Width: width, NoAccel: true})

	var rows []AccelSweepRow
	for _, frac := range matchFracs {
		data := traffic.Random(cfg.TrafficBytes, cfg.Seed)
		traffic.InjectMatches(data, set, frac, cfg.Seed+int64(frac*1000))
		for _, size := range bufSizes {
			row := AccelSweepRow{MatchFrac: frac, BufBytes: size}
			var bufs [][]byte
			for lo := 0; lo < len(data); lo += size {
				hi := lo + size
				if hi > len(data) {
					hi = len(data)
				}
				bufs = append(bufs, data[lo:hi])
			}
			for r := 0; r < cfg.Repeats; r++ {
				t0 := time.Now()
				for _, b := range bufs {
					accel.Scan(b, nil, nil)
				}
				if g := metrics.Throughput(uint64(len(data)), time.Since(t0).Nanoseconds()); g > row.AccelGbps {
					row.AccelGbps = g
				}
				t0 = time.Now()
				for _, b := range bufs {
					plain.Scan(b, nil, nil)
				}
				if g := metrics.Throughput(uint64(len(data)), time.Since(t0).Nanoseconds()); g > row.PlainGbps {
					row.PlainGbps = g
				}
			}
			if row.PlainGbps > 0 {
				row.Speedup = row.AccelGbps / row.PlainGbps
			}
			// Skip ratio from a lane-exact instrumented run (the
			// engine-path skip counts every invocation and uses the same
			// table and predicate as the fused kernels).
			c := metrics.Counters{LaneExact: true}
			for _, b := range bufs {
				accel.Scan(b, &c, nil)
			}
			row.SkipFrac = c.SkipFrac()
			row.AccelRuns = c.AccelRuns
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintAccelSweep renders the sweep as an aligned table.
func PrintAccelSweep(w io.Writer, title string, rows []AccelSweepRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %10s %9s %12s %12s %9s %10s %10s\n",
		"match_frac", "buf", "plain Gbps", "accel Gbps", "speedup", "skip_frac", "accel_runs")
	for _, r := range rows {
		fmt.Fprintf(w, "  %9.0f%% %9d %12.3f %12.3f %8.2fx %10.3f %10d\n",
			r.MatchFrac*100, r.BufBytes, r.PlainGbps, r.AccelGbps, r.Speedup,
			r.SkipFrac, r.AccelRuns)
	}
}

// WriteAccelSweepCSV exports the sweep.
func WriteAccelSweepCSV(dir, name string, rows []AccelSweepRow) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			ftoa(r.MatchFrac), strconv.Itoa(r.BufBytes),
			ftoa(r.PlainGbps), ftoa(r.AccelGbps), ftoa(r.Speedup),
			ftoa(r.SkipFrac), strconv.FormatUint(r.AccelRuns, 10),
		})
	}
	return writeCSV(dir, name,
		[]string{"match_frac", "buf_bytes", "plain_gbps", "accel_gbps", "speedup",
			"skip_frac", "accel_runs"}, out)
}

// Command vpatch-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	vpatch-bench -fig 4a            # one figure
//	vpatch-bench -all               # every figure
//	vpatch-bench -fig 4a -size 64   # 64 MB of traffic per dataset
//	vpatch-bench -kernels           # extract-kernel A/B sweep (all kernels)
//	vpatch-bench -db web.vpdb      # startup: load vs recompile + scan
//	vpatch-bench -all -json bench.json
//	                                # machine-readable results
//
// Figures: 4a 4b 5a 5b 5c 6a 6b 6c 7a 7b. Output is the same rows/series
// the paper plots: wall-clock Gbps of this Go implementation plus
// cost-model Gbps on the figure's platform (Haswell for Fig 4-6, Xeon-Phi
// for Fig 7); speedups are model-based.
//
// The -db mode runs the startup benchmark on a precompiled database
// written by vpatch-compile: it times loading the database versus
// recompiling the same pattern set with the same engine, prints the
// engine's Info line, and measures scan throughput over synthesized
// traffic — the compile-once / load-everywhere payoff in one report.
//
// The kernel and startup modes combine: -kernels -db web.vpdb in one
// invocation runs both and writes one JSON report with both sections.
//
// The -kernels mode runs the extract-kernel A/B sweep over every kernel
// this host can run: each kernel's filtering-round and full-scan
// throughput over clean-random and ISCX-like traffic, with speedups
// against the SWAR reference kernel — the way to re-measure AVX2
// against SWAR on a host. The -json report records the kernel Compile
// dispatches to on the host; the paper figures themselves stay pinned
// to the unaccelerated reference rendition and report kernel
// "reference".
//
// -json writes every result produced by the run as one machine-readable
// JSON document ("-" = stdout): per-figure wall-clock and modeled Gbps
// with full event counters, the kernel sweep's rows and the -db report.
// CI records it as the bench-trajectory artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vpatch"
	"vpatch/internal/costmodel"
	"vpatch/internal/experiments"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
	"vpatch/internal/vec"
)

// report accumulates everything the run produced for -json output.
type report struct {
	GeneratedAt string                       `json:"generated_at"`
	Seed        int64                        `json:"seed"`
	TrafficMB   int                          `json:"traffic_mb"`
	Repeats     int                          `json:"repeats"`
	Kernel      string                       `json:"kernel"`
	Figures     map[string]figEntry          `json:"figures,omitempty"`
	KernelSweep []experiments.KernelSweepRow `json:"kernel_sweep,omitempty"`
	DB          *dbReport                    `json:"db,omitempty"`
}

// figEntry is one figure in the JSON report, tagged with the extract
// kernel its engines resolved to. The paper-figure reproductions are
// pinned to the unaccelerated reference path (no extract kernel runs),
// recorded as "reference"; the sweeps record the real resolved kernel.
type figEntry struct {
	Kernel string `json:"kernel"`
	Rows   any    `json:"rows"`
}

// dbReport is the -db startup benchmark in machine-readable form.
type dbReport struct {
	Path          string  `json:"path"`
	Bytes         int     `json:"bytes"`
	Info          string  `json:"info"`
	LoadMicros    int64   `json:"load_us"`
	CompileMicros int64   `json:"compile_us"`
	ScanGbps      float64 `json:"scan_gbps"`
}

func (r *report) addFigure(name string, rows any) {
	if r.Figures == nil {
		r.Figures = map[string]figEntry{}
	}
	// Paper figures stay pinned to the unaccelerated reference rendition
	// (see experiments.BuildAlgos) — no extract kernel is involved.
	r.Figures[name] = figEntry{Kernel: "reference", Rows: rows}
}

// write emits the report to path ("-" = stdout) when -json was given.
func (r *report) write(path string) {
	if path == "" {
		return
	}
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatalBench(err)
	}
	blob = append(blob, '\n')
	if path == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fatalBench(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func main() {
	fig := flag.String("fig", "", "figure to regenerate (4a 4b 5a 5b 5c 6a 6b 6c 7a 7b)")
	all := flag.Bool("all", false, "regenerate every figure")
	sizeMB := flag.Int("size", 4, "traffic size per dataset in MB")
	seed := flag.Int64("seed", 1, "generator seed")
	repeats := flag.Int("repeats", 3, "wall-clock timing repeats")
	csvDir := flag.String("csv", "", "also write each figure as CSV into this directory")
	dbPath := flag.String("db", "", "precompiled .vpdb database: run the load-vs-compile startup benchmark instead of figures")
	kernelsMode := flag.Bool("kernels", false, "run the extract-kernel A/B sweep over every kernel available on this host")
	jsonPath := flag.String("json", "", "write all results of this run as JSON to the given path ('-' = stdout)")
	flag.Parse()

	cfg := experiments.Config{
		TrafficBytes: *sizeMB << 20,
		Seed:         *seed,
		Repeats:      *repeats,
	}
	rep := &report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        *seed,
		TrafficMB:   *sizeMB,
		Repeats:     *repeats,
		Kernel:      vpatch.ActiveKernel().String(),
	}

	// The kernel and startup modes combine: one invocation may run both
	// and the -json report carries every section produced.
	ranMode := false
	if *kernelsMode {
		runKernelSweep(cfg, *csvDir, rep)
		ranMode = true
	}
	if *dbPath != "" {
		runDBBench(cfg, *dbPath, rep)
		ranMode = true
	}
	if ranMode {
		rep.write(*jsonPath)
		return
	}

	var figs []string
	switch {
	case *all:
		figs = []string{"4a", "4b", "5a", "5b", "5c", "6a", "6b", "6c", "7a", "7b"}
	case *fig != "":
		figs = strings.Split(*fig, ",")
	default:
		flag.Usage()
		os.Exit(2)
	}

	// Rule sets are built once and shared across figures.
	fmt.Println("generating rule sets (seeded, statistics of Snort v2.9.7 / ET-open 2.9.0)...")
	s1 := patterns.GenerateS1(cfg.Seed)
	s2 := patterns.GenerateS2(cfg.Seed)
	s1web := s1.WebSubset()
	s2web := s2.WebSubset()
	fmt.Println("  " + patterns.DescribeSet("S1", s1))
	fmt.Println("  " + patterns.DescribeSet("S2", s2))
	fmt.Println()

	for _, f := range figs {
		switch strings.TrimSpace(f) {
		case "4a":
			rows := experiments.FigThroughput(cfg, s1web, costmodel.Haswell, 8)
			experiments.PrintThroughputRows(os.Stdout,
				"Fig 4a: overall throughput, Snort web patterns (2K), Haswell (W=8)", rows)
			rep.addFigure("4a", rows)
			writeCSV(*csvDir, func() error { return experiments.WriteThroughputCSV(*csvDir, "fig4a.csv", rows) })
		case "4b":
			rows := experiments.FigThroughput(cfg, s2web, costmodel.Haswell, 8)
			experiments.PrintThroughputRows(os.Stdout,
				"Fig 4b: overall throughput, ET-open web patterns (9K), Haswell (W=8)", rows)
			rep.addFigure("4b", rows)
			writeCSV(*csvDir, func() error { return experiments.WriteThroughputCSV(*csvDir, "fig4b.csv", rows) })
		case "5a":
			pts := experiments.Fig5a(cfg, s2, []int{1000, 2500, 5000, 7500, 10000, 15000, 20000},
				costmodel.Haswell, 8)
			experiments.PrintFig5a(os.Stdout, pts)
			rep.addFigure("5a", pts)
			writeCSV(*csvDir, func() error { return experiments.WriteFig5aCSV(*csvDir, "fig5a.csv", pts) })
		case "5b":
			pts := experiments.Fig5b(cfg, s2, []int{1000, 2500, 5000, 7500, 10000, 15000, 20000}, 8)
			experiments.PrintFig5b(os.Stdout, pts)
			rep.addFigure("5b", pts)
			writeCSV(*csvDir, func() error { return experiments.WriteFig5bCSV(*csvDir, "fig5b.csv", pts) })
		case "5c":
			pts := experiments.Fig5c(cfg, s2.Subset(2000, cfg.Seed),
				[]float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}, costmodel.Haswell, 8)
			experiments.PrintFig5c(os.Stdout, pts)
			rep.addFigure("5c", pts)
			writeCSV(*csvDir, func() error { return experiments.WriteFig5cCSV(*csvDir, "fig5c.csv", pts) })
		case "6a":
			cells := experiments.Fig6(cfg, s1web, costmodel.Haswell, 8)
			experiments.PrintFig6(os.Stdout, "Fig 6a: filtering-only throughput, 2K patterns", cells)
			rep.addFigure("6a", cells)
			writeCSV(*csvDir, func() error { return experiments.WriteFig6CSV(*csvDir, "fig6a.csv", cells) })
		case "6b":
			cells := experiments.Fig6(cfg, s2web, costmodel.Haswell, 8)
			experiments.PrintFig6(os.Stdout, "Fig 6b: filtering-only throughput, 9K patterns", cells)
			rep.addFigure("6b", cells)
			writeCSV(*csvDir, func() error { return experiments.WriteFig6CSV(*csvDir, "fig6b.csv", cells) })
		case "6c":
			cells := experiments.Fig6(cfg, s2, costmodel.Haswell, 8)
			experiments.PrintFig6(os.Stdout, "Fig 6c: filtering-only throughput, 20K patterns", cells)
			rep.addFigure("6c", cells)
			writeCSV(*csvDir, func() error { return experiments.WriteFig6CSV(*csvDir, "fig6c.csv", cells) })
		case "7a":
			rows := experiments.FigThroughput(cfg, s1web, costmodel.XeonPhi, 16)
			experiments.PrintThroughputRows(os.Stdout,
				"Fig 7a: overall throughput, Snort web patterns (2K), Xeon-Phi (W=16)", rows)
			rep.addFigure("7a", rows)
			writeCSV(*csvDir, func() error { return experiments.WriteThroughputCSV(*csvDir, "fig7a.csv", rows) })
		case "7b":
			rows := experiments.FigThroughput(cfg, s2web, costmodel.XeonPhi, 16)
			experiments.PrintThroughputRows(os.Stdout,
				"Fig 7b: overall throughput, ET-open web patterns (9K), Xeon-Phi (W=16)", rows)
			rep.addFigure("7b", rows)
			writeCSV(*csvDir, func() error { return experiments.WriteThroughputCSV(*csvDir, "fig7b.csv", rows) })
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", f)
			os.Exit(2)
		}
		fmt.Println()
	}
	rep.write(*jsonPath)
}

// runKernelSweep runs the extract-kernel A/B sweep over every kernel
// this host can run, on the Snort-sized web rule set (clean-random +
// ISCX-like traffic, SWAR baseline first).
func runKernelSweep(cfg experiments.Config, csvDir string, rep *report) {
	fmt.Println("generating rule set (seeded, statistics of Snort v2.9.7)...")
	set := patterns.GenerateS1(cfg.Seed).WebSubset()
	fmt.Println("  " + patterns.DescribeSet("S1-web", set))
	fmt.Println()
	rows := experiments.KernelSweep(cfg, set, 8, vec.Kernels())
	experiments.PrintKernelSweep(os.Stdout,
		"Kernel sweep: extract-kernel filtering-round and full-scan throughput (V-PATCH W=8)", rows)
	rep.KernelSweep = rows
	writeCSV(csvDir, func() error { return experiments.WriteKernelSweepCSV(csvDir, "kernelsweep.csv", rows) })
}

// runDBBench is the -db startup benchmark: load the database (timed,
// repeated), recompile the identical pattern set with the identical
// engine for comparison, print the engine Info, and measure scan
// throughput over synthesized traffic.
func runDBBench(cfg experiments.Config, path string, rep *report) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fatalBench(err)
	}
	reps := cfg.Repeats
	if reps < 1 {
		reps = 1
	}

	var eng *vpatch.Engine
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		eng, err = vpatch.Deserialize(blob)
		if err != nil {
			fatalBench(err)
		}
	}
	loadTime := time.Since(t0) / time.Duration(reps)
	info := eng.Info()
	fmt.Printf("database: %s (%d bytes)\n", path, len(blob))
	fmt.Printf("engine:   %s\n", info)

	opt := vpatch.Options{Algorithm: eng.Algorithm(), VectorWidth: eng.VectorWidth()}
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := vpatch.Compile(eng.Set(), opt); err != nil {
			fatalBench(err)
		}
	}
	compileTime := time.Since(t0) / time.Duration(reps)
	fmt.Printf("startup:  load %s vs compile %s (%.1fx)\n",
		loadTime.Round(time.Microsecond), compileTime.Round(time.Microsecond),
		float64(compileTime)/float64(loadTime))
	rep.DB = &dbReport{
		Path: path, Bytes: len(blob), Info: info.String(),
		LoadMicros:    loadTime.Microseconds(),
		CompileMicros: compileTime.Microseconds(),
	}

	data := traffic.Synthesize(traffic.ISCXDay2, cfg.TrafficBytes, cfg.Seed, eng.Set())
	sess := eng.NewSession()
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 = time.Now()
		var n uint64
		sess.Scan(data, nil, func(vpatch.Match) { n++ })
		if gbps := float64(len(data)) * 8 / float64(time.Since(t0).Nanoseconds()); gbps > best {
			best = gbps
		}
	}
	fmt.Printf("scan:     %.3f Gbps over %d MB of ISCX-like traffic (best of %d)\n",
		best, len(data)>>20, reps)
	rep.DB.ScanGbps = best
}

func fatalBench(err error) {
	fmt.Fprintln(os.Stderr, "vpatch-bench:", err)
	os.Exit(1)
}

// writeCSV runs the export when a CSV directory was requested.
func writeCSV(dir string, fn func() error) {
	if dir == "" {
		return
	}
	if err := fn(); err != nil {
		fmt.Fprintln(os.Stderr, "vpatch-bench: csv:", err)
		os.Exit(1)
	}
}

// Command vpatch-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	vpatch-bench -fig 4a            # one figure
//	vpatch-bench -all               # every figure
//	vpatch-bench -fig 4a -size 64   # 64 MB of traffic per dataset
//	vpatch-bench -sizes 64,256,1514,imix -batch 32
//	                                # packet-size sweep: serial vs batch
//	vpatch-bench -accel             # acceleration density sweep
//	vpatch-bench -rules             # rule-tier overhead sweep:
//	                                # full semantics vs literal-only
//	vpatch-bench -flood             # match-flood adversarial sweep:
//	                                # verifier budgets on vs off
//	vpatch-bench -kernels           # extract-kernel A/B sweep (all kernels)
//	vpatch-bench -kernel avx2       # kernel sweep: avx2 vs the swar baseline
//	vpatch-bench -db web.vpdb      # startup: load vs recompile + scan
//	vpatch-bench -all -json bench.json
//	                                # machine-readable results
//
// Figures: 4a 4b 5a 5b 5c 6a 6b 6c 7a 7b. Output is the same rows/series
// the paper plots: wall-clock Gbps of this Go implementation plus
// cost-model Gbps on the figure's platform (Haswell for Fig 4-6, Xeon-Phi
// for Fig 7); speedups are model-based. See EXPERIMENTS.md for the
// paper-vs-measured record.
//
// The -db mode runs the startup benchmark on a precompiled database
// written by vpatch-compile: it times loading the database versus
// recompiling the same pattern set with the same engine, prints the
// engine's Info line, and measures scan throughput over synthesized
// traffic — the compile-once / load-everywhere payoff in one report.
//
// The -sizes mode runs the batch-scanning sweep instead of a figure:
// packets of each given size (or the IMIX mix) scanned one Scan call
// per packet versus one ScanBatch call per -batch packets, reporting
// wall-clock throughput and the serial scan's vector coverage per size.
//
// The -accel mode runs the skip-loop acceleration density sweep
// (0-100% match fraction x packet-to-chunk buffer sizes): accelerated
// vs plain fused kernels plus the skip ratio per cell — the crossover
// evidence behind the acceleration layer's governor thresholds.
//
// Sweep and startup modes combine: -kernels -sizes 64 -rules in one
// invocation runs all three and writes one JSON report with every
// section.
//
// The -kernels mode (or -kernel with a specific kernel name and no
// figure selection) runs the extract-kernel A/B sweep: each kernel's
// filtering-round and full-scan throughput over clean-random and
// ISCX-like traffic, with speedups against the always-included SWAR
// reference kernel — the way to re-measure AVX2 against SWAR on a host.
// -kernel also records the selected kernel in the -json report for
// every mode; the paper figures themselves stay pinned to the
// unaccelerated reference rendition and report kernel "reference".
//
// -json writes every result produced by the run as one machine-readable
// JSON document ("-" = stdout): per-figure wall-clock and modeled Gbps
// with full event counters, the batch sweep's rows, and accel-sweep
// skip ratios. CI records it as the bench-trajectory artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vpatch"
	"vpatch/internal/costmodel"
	"vpatch/internal/experiments"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
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
	BatchSweep  []experiments.BatchSweepRow  `json:"batch_sweep,omitempty"`
	AccelSweep  []experiments.AccelSweepRow  `json:"accel_sweep,omitempty"`
	RuleSweep   []experiments.RuleSweepRow   `json:"rule_sweep,omitempty"`
	FloodSweep  []experiments.FloodSweepRow  `json:"flood_sweep,omitempty"`
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
	sizesFlag := flag.String("sizes", "", "comma-separated packet sizes in bytes (or 'imix'): run the serial-vs-batch packet sweep instead of figures")
	batchN := flag.Int("batch", 32, "buffers per ScanBatch call in the packet sweep")
	dbPath := flag.String("db", "", "precompiled .vpdb database: run the load-vs-compile startup benchmark instead of figures")
	accelSweep := flag.Bool("accel", false, "run the skip-loop acceleration density sweep instead of figures")
	rulesSweep := flag.Bool("rules", false, "run the rule-tier overhead sweep (full rule semantics vs literal-only at 0-10% anchor-hit rates) instead of figures")
	floodSweep := flag.Bool("flood", false, "run the match-flood adversarial sweep (verifier budgets on vs off at 0-40% flood-site densities) instead of figures")
	kernelFlag := flag.String("kernel", "auto", "extract kernel to force (auto, avx2, swar); with no figure selection, runs the kernel sweep for it vs the swar baseline")
	kernelsMode := flag.Bool("kernels", false, "run the extract-kernel A/B sweep over every kernel available on this host")
	jsonPath := flag.String("json", "", "write all results of this run as JSON to the given path ('-' = stdout)")
	flag.Parse()

	kern, err := vpatch.ParseKernel(*kernelFlag)
	if err != nil {
		fatalBench(err)
	}
	if !vpatch.KernelAvailable(kern) {
		fatalBench(fmt.Errorf("kernel %s is not available on this host (have %v)",
			kern, vpatch.AvailableKernels()))
	}
	resolved := kern
	if resolved == vpatch.KernelAuto {
		resolved = vpatch.ActiveKernel()
	}

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
		Kernel:      resolved.String(),
	}

	// The sweep and startup modes combine: one invocation may run any
	// subset of them (e.g. -kernels -sizes ... -rules) and the -json
	// report carries every section produced.
	ranMode := false
	if *kernelsMode || (kern != vpatch.KernelAuto && *fig == "" && !*all &&
		*sizesFlag == "" && *dbPath == "" && !*accelSweep && !*rulesSweep && !*floodSweep) {
		kernels := vpatch.AvailableKernels()
		if !*kernelsMode {
			kernels = []vpatch.Kernel{resolved}
		}
		runKernelSweep(cfg, kernels, *csvDir, rep)
		ranMode = true
	}
	if *dbPath != "" {
		runDBBench(cfg, *dbPath, rep)
		ranMode = true
	}
	if *accelSweep {
		runAccelSweep(cfg, *csvDir, rep)
		ranMode = true
	}
	if *sizesFlag != "" {
		runBatchSweep(cfg, *sizesFlag, *batchN, *csvDir, rep)
		ranMode = true
	}
	if *rulesSweep {
		runRuleSweep(cfg, *csvDir, rep)
		ranMode = true
	}
	if *floodSweep {
		runFloodSweep(cfg, *csvDir, rep)
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

// runKernelSweep runs the extract-kernel A/B sweep on the Snort-sized
// web rule set (clean-random + ISCX-like traffic, SWAR baseline always
// included).
func runKernelSweep(cfg experiments.Config, kernels []vpatch.Kernel, csvDir string, rep *report) {
	fmt.Println("generating rule set (seeded, statistics of Snort v2.9.7)...")
	set := patterns.GenerateS1(cfg.Seed).WebSubset()
	fmt.Println("  " + patterns.DescribeSet("S1-web", set))
	fmt.Println()
	rows := experiments.KernelSweep(cfg, set, 8, kernels)
	experiments.PrintKernelSweep(os.Stdout,
		"Kernel sweep: extract-kernel filtering-round and full-scan throughput (V-PATCH W=8)", rows)
	rep.KernelSweep = rows
	writeCSV(csvDir, func() error { return experiments.WriteKernelSweepCSV(csvDir, "kernelsweep.csv", rows) })
}

// runAccelSweep runs the acceleration density sweep on the Snort-sized
// web rule set (the BenchmarkAccel* configuration).
func runAccelSweep(cfg experiments.Config, csvDir string, rep *report) {
	fmt.Println("generating rule set (seeded, statistics of Snort v2.9.7)...")
	set := patterns.GenerateS1(cfg.Seed).WebSubset()
	fmt.Println("  " + patterns.DescribeSet("S1-web", set))
	fmt.Println()
	rows := experiments.AccelSweep(cfg, set,
		[]float64{0, 0.25, 0.5, 0.75, 1.0},
		[]int{64, 1514, 64 << 10}, 8)
	experiments.PrintAccelSweep(os.Stdout,
		"Accel sweep: skip-loop acceleration vs plain fused kernels (V-PATCH W=8, random traffic + injected matches)", rows)
	rep.AccelSweep = rows
	writeCSV(csvDir, func() error { return experiments.WriteAccelSweepCSV(csvDir, "accelsweep.csv", rows) })
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

// runBatchSweep parses the -sizes list and runs the packet-size sweep
// on the Snort-sized web rule set (the Fig. 4a configuration).
func runBatchSweep(cfg experiments.Config, sizesFlag string, batch int, csvDir string, rep *report) {
	var sizes []int
	for _, tok := range strings.Split(sizesFlag, ",") {
		tok = strings.TrimSpace(tok)
		if strings.EqualFold(tok, "imix") {
			sizes = append(sizes, 0)
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad packet size %q (want bytes or 'imix')\n", tok)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}
	fmt.Println("generating rule set (seeded, statistics of Snort v2.9.7)...")
	set := patterns.GenerateS1(cfg.Seed).WebSubset()
	fmt.Println("  " + patterns.DescribeSet("S1-web", set))
	fmt.Println()
	rows := experiments.BatchSweep(cfg, set, sizes, batch, 8)
	experiments.PrintBatchSweep(os.Stdout,
		fmt.Sprintf("Batch sweep: V-PATCH one Scan per packet vs one ScanBatch per %d packets (W=8), ISCX-day2 traffic", batch), rows)
	rep.BatchSweep = rows
	writeCSV(csvDir, func() error { return experiments.WriteBatchSweepCSV(csvDir, "batchsweep.csv", rows) })
}

// runRuleSweep runs the rule-tier overhead sweep: the full rule
// semantics pipeline (clause evaluation + anchored lazy-DFA verifier)
// against the literal-only pipeline over the same prefilter literals,
// as injected anchor density sweeps from clean traffic to ~10% of
// bytes. The paper figures stay literal-only; this section is the
// evidence that verification rides on the prefilter instead of taxing
// the fast path.
func runRuleSweep(cfg experiments.Config, csvDir string, rep *report) {
	rows, err := experiments.RuleSweep(cfg, vpatch.Options{}, nil)
	if err != nil {
		fatalBench(err)
	}
	experiments.PrintRuleSweep(os.Stdout,
		"Rule sweep: full rule semantics vs literal-only prefilter (V-PATCH, random traffic + injected anchors)", rows)
	rep.RuleSweep = rows
	writeCSV(csvDir, func() error { return experiments.WriteRuleSweepCSV(csvDir, "rulesweep.csv", rows) })
}

// runFloodSweep runs the match-flood adversarial sweep: the same rule
// pipeline with verifier budgets disarmed versus armed as injected
// always-rejecting anchor sites sweep from clean traffic to attack
// densities. The 0% cell's budgets-on/off ratio is the budget
// bookkeeping's clean-traffic overhead; the attack cells show the
// throughput floor the budget defends.
func runFloodSweep(cfg experiments.Config, csvDir string, rep *report) {
	rows, err := experiments.FloodSweep(cfg, vpatch.Options{}, nil)
	if err != nil {
		fatalBench(err)
	}
	experiments.PrintFloodSweep(os.Stdout,
		"Flood sweep: verifier budgets on vs off under match-flood anchor injection (V-PATCH, random traffic)", rows)
	rep.FloodSweep = rows
	writeCSV(csvDir, func() error { return experiments.WriteFloodSweepCSV(csvDir, "floodsweep.csv", rows) })
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

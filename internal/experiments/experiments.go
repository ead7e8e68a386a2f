// Package experiments regenerates every figure of the paper's evaluation
// (§V). Each FigNN function builds the figure's rule sets and traffic,
// runs the matchers, and returns the same rows/series the paper plots —
// both wall-clock throughput of this Go implementation and cost-model
// throughput on the paper's Haswell and Xeon-Phi testbeds (the modeled
// numbers are the ones comparable to the paper's bars; see PAPER.md
// "What this repo reproduces").
package experiments

import (
	"fmt"
	"io"
	"time"

	"vpatch/internal/ahocorasick"
	"vpatch/internal/core"
	"vpatch/internal/costmodel"
	"vpatch/internal/dfc"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

// Config controls workload sizes so the full suite can run at paper scale
// or be smoke-tested quickly.
type Config struct {
	// TrafficBytes per dataset (default 4 MB; the paper uses 0.3-1 GB —
	// throughput is size-independent beyond cache-warming effects).
	TrafficBytes int
	// Seed drives all generators.
	Seed int64
	// Repeats for wall-clock timing; the best (max throughput) run is
	// reported, standard practice for eliminating scheduler noise.
	Repeats int
}

func (c Config) withDefaults() Config {
	if c.TrafficBytes == 0 {
		c.TrafficBytes = 4 << 20
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Datasets returns the four evaluation inputs in the paper's order:
// ISCX day2, ISCX day6, DARPA 2000, random. set seeds attack injection.
func Datasets(cfg Config, set *patterns.Set) []Dataset {
	cfg = cfg.withDefaults()
	var out []Dataset
	for _, p := range traffic.Profiles {
		out = append(out, Dataset{
			Name: p.Name,
			Data: traffic.Synthesize(p, cfg.TrafficBytes, cfg.Seed, set),
			Real: true,
		})
	}
	out = append(out, Dataset{
		Name: "random",
		Data: traffic.Random(cfg.TrafficBytes, cfg.Seed),
	})
	return out
}

// Dataset is one evaluation input.
type Dataset struct {
	Name string
	Data []byte
	Real bool // realistic trace (vs synthetic random)
}

// Algo couples a matcher with the metadata the cost model needs.
type Algo struct {
	Kind costmodel.Kind
	Scan func(input []byte, c *metrics.Counters)

	HTBytes  int
	DFABytes int
	Width    int // vector lanes of the measured implementation
}

// BuildAlgos compiles the paper's five algorithms for a pattern set.
// width selects the vector lane count for the vectorized pair (0 = 8).
//
// The figure reproductions deliberately build the matchers *without*
// the skip-loop acceleration layer: the paper's algorithms pay a probe
// per position, and both the wall-clock and the modeled bars are meant
// to reproduce that design. The acceleration layer has its own
// benchmarks (BenchmarkAccel*) and skip-ratio test in internal/core.
func BuildAlgos(set *patterns.Set, width int) []Algo {
	if width == 0 {
		width = 8
	}
	ac := ahocorasick.Build(set)
	d := dfc.Build(set)
	vd := dfc.BuildVector(set, width)
	sp := core.NewSPatch(set, core.Options{NoAccel: true})
	vp := core.NewVPatch(set, core.VOptions{Width: width, NoAccel: true})
	htBytes := d.Verifier().MemoryFootprint()
	return []Algo{
		{
			Kind:     costmodel.KindAhoCorasick,
			Scan:     func(in []byte, c *metrics.Counters) { ac.Scan(in, c, nil) },
			DFABytes: ac.MemoryFootprint(),
		},
		{
			Kind:    costmodel.KindDFC,
			Scan:    func(in []byte, c *metrics.Counters) { d.Scan(in, c, nil) },
			HTBytes: htBytes,
		},
		{
			Kind:    costmodel.KindVectorDFC,
			Scan:    func(in []byte, c *metrics.Counters) { vd.Scan(in, c, nil) },
			HTBytes: htBytes,
			Width:   width,
		},
		{
			Kind:    costmodel.KindSPatch,
			Scan:    func(in []byte, c *metrics.Counters) { sp.Scan(in, c, nil) },
			HTBytes: htBytes,
		},
		{
			Kind:    costmodel.KindVPatch,
			Scan:    func(in []byte, c *metrics.Counters) { vp.Scan(in, c, nil) },
			HTBytes: htBytes,
			Width:   width,
		},
	}
}

// Measurement is one (algorithm, dataset) cell of a figure.
type Measurement struct {
	Kind      costmodel.Kind
	Dataset   string
	WallGbps  float64
	ModelGbps float64
	Counters  metrics.Counters
}

// Measure produces wall-clock and modeled throughput for one algorithm on
// one input.
func Measure(cfg Config, a Algo, platform costmodel.Platform, data []byte) Measurement {
	cfg = cfg.withDefaults()
	// Wall clock: un-instrumented scans, best of Repeats.
	best := 0.0
	for r := 0; r < cfg.Repeats; r++ {
		t0 := time.Now()
		a.Scan(data, nil)
		if g := metrics.Throughput(uint64(len(data)), time.Since(t0).Nanoseconds()); g > best {
			best = g
		}
	}
	// A lane-exact instrumented scan feeds the cost model: its inputs
	// are the emulated engine's probe, gather and iteration counts.
	c := metrics.Counters{LaneExact: true}
	a.Scan(data, &c)
	res := costmodel.Estimate(platform, costmodel.Inputs{
		Kind: a.Kind, Counters: &c,
		DFABytes: a.DFABytes, HTBytes: a.HTBytes,
		VectorWidth: a.Width,
	})
	return Measurement{Kind: a.Kind, WallGbps: best, ModelGbps: res.Gbps, Counters: c}
}

// FigThroughput is the Fig 4 / Fig 7 experiment: all five algorithms over
// all four datasets on one platform. Rows come back grouped by dataset in
// the paper's order, with speedups relative to DFC per dataset.
type FigThroughputRow struct {
	Dataset string
	Cells   []Measurement
}

// SpeedupVsDFC returns the modeled speedup of cell i relative to the
// dataset's DFC cell (the number printed above the paper's bars).
func (r *FigThroughputRow) SpeedupVsDFC(i int) float64 {
	var dfcG float64
	for _, c := range r.Cells {
		if c.Kind == costmodel.KindDFC {
			dfcG = c.ModelGbps
		}
	}
	if dfcG == 0 {
		return 0
	}
	return r.Cells[i].ModelGbps / dfcG
}

// FigThroughput runs the Fig 4 (Haswell, width 8) or Fig 7 (Phi, width
// 16) experiment for one pattern set.
func FigThroughput(cfg Config, set *patterns.Set, platform costmodel.Platform, width int) []FigThroughputRow {
	cfg = cfg.withDefaults()
	algos := BuildAlgos(set, width)
	var rows []FigThroughputRow
	for _, ds := range Datasets(cfg, set) {
		row := FigThroughputRow{Dataset: ds.Name}
		for _, a := range algos {
			m := Measure(cfg, a, platform, ds.Data)
			m.Dataset = ds.Name
			row.Cells = append(row.Cells, m)
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig5aPoint is one x-position of Fig 5a: S-PATCH and V-PATCH throughput
// at a pattern count, plus the vectorization speedup.
type Fig5aPoint struct {
	Patterns     int
	SPatch       Measurement
	VPatch       Measurement
	ModelSpeedup float64
	WallSpeedup  float64
}

// Fig5a sweeps the number of patterns (random subsets of the full S2 set,
// as in the paper) and measures S-PATCH vs V-PATCH.
func Fig5a(cfg Config, full *patterns.Set, counts []int, platform costmodel.Platform, width int) []Fig5aPoint {
	cfg = cfg.withDefaults()
	var out []Fig5aPoint
	for _, n := range counts {
		sub := full.Subset(n, cfg.Seed)
		data := traffic.Synthesize(traffic.ISCXDay2, cfg.TrafficBytes, cfg.Seed, sub)
		sp := core.NewSPatch(sub, core.Options{NoAccel: true})
		vp := core.NewVPatch(sub, core.VOptions{Width: width, NoAccel: true})
		ht := dfc.Build(sub).Verifier().MemoryFootprint()
		aS := Algo{Kind: costmodel.KindSPatch,
			Scan: func(in []byte, c *metrics.Counters) { sp.Scan(in, c, nil) }, HTBytes: ht}
		aV := Algo{Kind: costmodel.KindVPatch,
			Scan: func(in []byte, c *metrics.Counters) { vp.Scan(in, c, nil) }, HTBytes: ht, Width: width}
		mS := Measure(cfg, aS, platform, data)
		mV := Measure(cfg, aV, platform, data)
		pt := Fig5aPoint{Patterns: sub.Len(), SPatch: mS, VPatch: mV}
		if mS.ModelGbps > 0 {
			pt.ModelSpeedup = mV.ModelGbps / mS.ModelGbps
		}
		if mS.WallGbps > 0 {
			pt.WallSpeedup = mV.WallGbps / mS.WallGbps
		}
		out = append(out, pt)
	}
	return out
}

// Fig5bPoint is one x-position of Fig 5b: the filtering-to-total time
// ratio (left axis) and the useful-lane fraction in the vector register
// when filter 3 runs (right axis).
type Fig5bPoint struct {
	Patterns       int
	FilterTimeFrac float64
	UsefulLaneFrac float64
}

// Fig5b sweeps pattern count and reports V-PATCH's phase balance and
// vector-occupancy statistics.
func Fig5b(cfg Config, full *patterns.Set, counts []int, width int) []Fig5bPoint {
	cfg = cfg.withDefaults()
	var out []Fig5bPoint
	for _, n := range counts {
		sub := full.Subset(n, cfg.Seed)
		data := traffic.Synthesize(traffic.ISCXDay2, cfg.TrafficBytes, cfg.Seed, sub)
		// Lane-occupancy accounting needs the explicit vector path;
		// phase times come from the same run.
		vp := core.NewVPatch(sub, core.VOptions{Width: width})
		c := metrics.Counters{LaneExact: true}
		vp.Scan(data, &c, nil)
		out = append(out, Fig5bPoint{
			Patterns:       sub.Len(),
			FilterTimeFrac: c.FilteringTimeFrac(),
			UsefulLaneFrac: c.UsefulLaneFrac(width),
		})
	}
	return out
}

// Fig5cPoint is one x-position of Fig 5c: throughput and speedup as the
// fraction of matching input grows.
type Fig5cPoint struct {
	MatchFrac    float64
	SPatch       Measurement
	VPatch       Measurement
	ModelSpeedup float64
	WallSpeedup  float64
}

// Fig5c keeps the ruleset fixed (2,000 patterns, as in the paper) and
// sweeps the fraction of the input covered by injected matches.
func Fig5c(cfg Config, set *patterns.Set, fracs []float64, platform costmodel.Platform, width int) []Fig5cPoint {
	cfg = cfg.withDefaults()
	sp := core.NewSPatch(set, core.Options{NoAccel: true})
	vp := core.NewVPatch(set, core.VOptions{Width: width, NoAccel: true})
	ht := dfc.Build(set).Verifier().MemoryFootprint()
	aS := Algo{Kind: costmodel.KindSPatch,
		Scan: func(in []byte, c *metrics.Counters) { sp.Scan(in, c, nil) }, HTBytes: ht}
	aV := Algo{Kind: costmodel.KindVPatch,
		Scan: func(in []byte, c *metrics.Counters) { vp.Scan(in, c, nil) }, HTBytes: ht, Width: width}
	var out []Fig5cPoint
	for _, f := range fracs {
		data := traffic.Random(cfg.TrafficBytes, cfg.Seed)
		traffic.InjectMatches(data, set, f, cfg.Seed+int64(f*1000))
		mS := Measure(cfg, aS, platform, data)
		mV := Measure(cfg, aV, platform, data)
		pt := Fig5cPoint{MatchFrac: f, SPatch: mS, VPatch: mV}
		if mS.ModelGbps > 0 {
			pt.ModelSpeedup = mV.ModelGbps / mS.ModelGbps
		}
		if mS.WallGbps > 0 {
			pt.WallSpeedup = mV.WallGbps / mS.WallGbps
		}
		out = append(out, pt)
	}
	return out
}

// Fig6Cell is one (variant, dataset) bar of Fig 6: filtering-phase-only
// throughput.
type Fig6Cell struct {
	Variant   string // "S-PATCH-filtering", "V-PATCH-filtering+stores", "V-PATCH-filtering"
	Dataset   string
	WallGbps  float64
	ModelGbps float64
}

// Fig6 measures the filtering rounds in isolation over the realistic
// datasets for one pattern set (the paper repeats it for 2K, 9K and the
// full 20K sets).
func Fig6(cfg Config, set *patterns.Set, platform costmodel.Platform, width int) []Fig6Cell {
	cfg = cfg.withDefaults()
	sp := core.NewSPatch(set, core.Options{NoAccel: true})
	vp := core.NewVPatch(set, core.VOptions{Width: width, NoAccel: true})
	variants := []struct {
		name string
		kind costmodel.Kind
		run  func(in []byte, c *metrics.Counters)
	}{
		{"S-PATCH-filtering", costmodel.KindSPatch,
			func(in []byte, c *metrics.Counters) { sp.FilterOnly(in, c) }},
		{"V-PATCH-filtering+stores", costmodel.KindVPatch,
			func(in []byte, c *metrics.Counters) { vp.FilterOnly(in, c, true) }},
		{"V-PATCH-filtering", costmodel.KindVPatch,
			func(in []byte, c *metrics.Counters) { vp.FilterOnly(in, c, false) }},
	}
	var out []Fig6Cell
	for _, ds := range Datasets(cfg, set) {
		if !ds.Real {
			continue // Fig 6 uses the realistic traces only
		}
		for _, v := range variants {
			best := 0.0
			for r := 0; r < cfg.Repeats; r++ {
				t0 := time.Now()
				v.run(ds.Data, nil)
				if g := metrics.Throughput(uint64(len(ds.Data)), time.Since(t0).Nanoseconds()); g > best {
					best = g
				}
			}
			c := metrics.Counters{LaneExact: true} // cost-model inputs
			v.run(ds.Data, &c)
			if v.name == "V-PATCH-filtering" {
				// No-store variant: remove the store cost from the model
				// by zeroing candidate counts.
				c.ShortCandidates, c.LongCandidates = 0, 0
			}
			res := costmodel.Estimate(platform, costmodel.Inputs{
				Kind: v.kind, Counters: &c, HTBytes: 4 << 20, VectorWidth: width,
			})
			out = append(out, Fig6Cell{Variant: v.name, Dataset: ds.Name,
				WallGbps: best, ModelGbps: res.Gbps})
		}
	}
	return out
}

// PrintThroughputRows renders Fig 4 / Fig 7 rows as an aligned text table.
func PrintThroughputRows(w io.Writer, title string, rows []FigThroughputRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s %-14s %10s %11s %14s\n",
		"dataset", "algorithm", "wall_gbps", "model_gbps", "speedup_vs_dfc")
	for _, row := range rows {
		for i, cell := range row.Cells {
			fmt.Fprintf(w, "%-12s %-14s %10.3f %11.3f %14.2f\n",
				row.Dataset, cell.Kind, cell.WallGbps, cell.ModelGbps, row.SpeedupVsDFC(i))
		}
	}
}

// PrintFig5a renders the Fig 5a series.
func PrintFig5a(w io.Writer, pts []Fig5aPoint) {
	fmt.Fprintf(w, "Fig 5a: throughput vs number of patterns\n")
	fmt.Fprintf(w, "%9s %14s %14s %13s %12s\n",
		"patterns", "spatch_gbps", "vpatch_gbps", "model_spdup", "wall_spdup")
	for _, p := range pts {
		fmt.Fprintf(w, "%9d %14.3f %14.3f %13.2f %12.2f\n",
			p.Patterns, p.SPatch.ModelGbps, p.VPatch.ModelGbps, p.ModelSpeedup, p.WallSpeedup)
	}
}

// PrintFig5b renders the Fig 5b series.
func PrintFig5b(w io.Writer, pts []Fig5bPoint) {
	fmt.Fprintf(w, "Fig 5b: phase balance and vector occupancy vs number of patterns\n")
	fmt.Fprintf(w, "%9s %22s %20s\n", "patterns", "filter_time/total(%)", "useful_lanes(%)")
	for _, p := range pts {
		fmt.Fprintf(w, "%9d %22.1f %20.1f\n",
			p.Patterns, p.FilterTimeFrac*100, p.UsefulLaneFrac*100)
	}
}

// PrintFig5c renders the Fig 5c series.
func PrintFig5c(w io.Writer, pts []Fig5cPoint) {
	fmt.Fprintf(w, "Fig 5c: speedup vs fraction of matching input\n")
	fmt.Fprintf(w, "%10s %14s %14s %13s %12s\n",
		"match_frac", "spatch_gbps", "vpatch_gbps", "model_spdup", "wall_spdup")
	for _, p := range pts {
		fmt.Fprintf(w, "%10.0f%% %13.3f %14.3f %13.2f %12.2f\n",
			p.MatchFrac*100, p.SPatch.ModelGbps, p.VPatch.ModelGbps, p.ModelSpeedup, p.WallSpeedup)
	}
}

// PrintFig6 renders Fig 6 cells, grouped per dataset with the S-PATCH
// baseline normalized to 1.0 (as the paper annotates its bars).
func PrintFig6(w io.Writer, title string, cells []Fig6Cell) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s %-26s %10s %11s %9s\n",
		"dataset", "variant", "wall_gbps", "model_gbps", "vs_scalar")
	base := map[string]float64{}
	for _, c := range cells {
		if c.Variant == "S-PATCH-filtering" {
			base[c.Dataset] = c.ModelGbps
		}
	}
	for _, c := range cells {
		rel := 0.0
		if b := base[c.Dataset]; b > 0 {
			rel = c.ModelGbps / b
		}
		fmt.Fprintf(w, "%-12s %-26s %10.3f %11.3f %9.2f\n",
			c.Dataset, c.Variant, c.WallGbps, c.ModelGbps, rel)
	}
}

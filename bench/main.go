// Command bench is the repo's wire-to-alert benchmark: it starts a real
// in-process vpatch-serve configured as cmd/vpatch-serve's flag
// defaults, drives it over loopback raw TCP from one sender goroutine
// on one connection, taps every alert through serve.Config.OnAlert,
// checks each phase's alert multiset against a reference, and prints
// every metric by name with its unit. See README.md in this directory.
//
//	go run ./bench                                  every workload, end to end
//	go run ./bench -workload small_64 -seconds 20   one workload
//	go run ./bench -workload small_64 -phase mid    one phase of it
//	go run ./bench -workload small_64 -trace 1      the traced run (per-layer metrics)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vpatch/internal/patterns"
)

// Phase lengths as shares of -seconds. The sat phase is the longest:
// goodput and CPU per byte carry the tightest bounds.
const (
	satShare = 0.50
	midShare = 0.25
	lowShare = 0.25
	// setup_s is the median of 4 x setUps cold starts, a burst before the
	// first phase and one after each phase: a burst lasts a fraction of a
	// second, and one burst alone reads whatever the host does just then.
	setUps = 10
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarizes (0 = a
	// direct reading).
	Samples int `json:"samples,omitempty"`
}

// result is what one run reports.
type result struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]metric

	problems  []string
	imbalance float64 // sat phase: mean over sets of max shard bytes / mean shard bytes
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *result) fail(format string, a ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *result) absorb(p *phaseResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, msg := range p.problems {
		r.fail("%s", msg)
	}
	if p.failed > 0 && len(p.problems) == 0 {
		r.fail("%s: %d canaries never alerted", p.name, p.failed)
	}
}

// inputs is everything a run generates from the seed before the clock
// starts.
type inputs struct {
	text    string
	main    *corpus
	low     *corpus
	corpusS float64
}

func generate(w workload, seed int64, lowDur time.Duration) *inputs {
	t0 := time.Now()
	attack := patterns.GenerateS1(ruleSetSeed)
	in := &inputs{text: w.ruleText()}
	in.main = buildCorpus(&w, w.flows, seed, attack)
	// The low phase sends one set of a corpus sized to last lowDur at
	// lowSegsPerSec, every flow open for the whole phase. Its flows are
	// at most eight segments long, so that the phase carries enough
	// canaries for a 90th percentile.
	lw := w
	lw.flowBytes = min(w.flowBytes, 8*w.segBytes)
	perFlow := float64(len(buildCorpus(&lw, 16, seed, attack).units)) / 16
	lw.flows = max(int(lowDur.Seconds()*lowSegsPerSec/perFlow), 2)
	lw.concurrent = lw.flows
	in.low = buildCorpus(&lw, lw.flows, seed, attack)
	in.corpusS = time.Since(t0).Seconds()
	return in
}

// runE2E is the untraced run: set-up timing, then the sat, mid and low
// phases (or only the named one), then a clean drain.
func runE2E(w workload, seed int64, seconds float64, only string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	dur := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	in := generate(w, seed, dur(lowShare))
	rss := startRSSSampler()
	defer rss.stop()

	var h *harness
	defer func() {
		if h != nil {
			h.stop()
		}
	}()
	var db *compiled
	var setupS []float64
	// coldStarts times setUps cold starts. The last daemon of the first
	// burst serves the phases; every other one is drained at once.
	coldStarts := func() error {
		for i := 0; i < setUps; i++ {
			nh, ndb, s, err := setUp(&w, in.text)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setupS = append(setupS, s)
			if h == nil && i == setUps-1 {
				h, db = nh, ndb
			} else if _, err := nh.stop(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := coldStarts(); err != nil {
		return nil, err
	}
	refMain, err := reference(db.blob, in.main)
	if err != nil {
		return nil, err
	}
	refLow, err := reference(db.blob, in.low)
	if err != nil {
		return nil, err
	}

	if only == "" || only == "sat" {
		p, err := h.runPhase(phaseSpec{name: "sat", c: in.main, ref: &refMain, dur: dur(satShare), sat: true})
		if err != nil {
			return nil, err
		}
		res.absorb(p)
		// Medians over the phase's full passes, so that a stall of the
		// host shorter than half the phase does not move them.
		res.set("goodput_gbps", median(p.setGbps), "Gbit/s", len(p.setGbps))
		res.set("cpu_ns_per_byte", median(p.setCPUPerByte), "ns/B", len(p.setCPUPerByte))
		res.imbalance = p.imbalance
		fmt.Printf("# sat: %d sets, %d segments, %.2f s, shard imbalance %.3f, shed %d B\n",
			p.sets, p.segs, p.wall.Seconds(), p.imbalance, p.sched.DroppedBytes)
		if err := coldStarts(); err != nil {
			return nil, err
		}
	}
	if only == "" || only == "mid" {
		p, err := h.runPhase(phaseSpec{name: "mid", c: in.main, ref: &refMain, dur: dur(midShare), pace: paceMbps(w.midMbps)})
		if err != nil {
			return nil, err
		}
		res.absorb(p)
		res.set("alert_latency_p50_ms", percentile(p.latMs, 50), "ms", len(p.latMs))
		res.set("alert_latency_p90_ms", percentile(p.latMs, 90), "ms", len(p.latMs))
		reportPaced(p, w.midMbps)
		if err := coldStarts(); err != nil {
			return nil, err
		}
	}
	if only == "" || only == "low" {
		p, err := h.runPhase(phaseSpec{name: "low", c: in.low, ref: &refLow, sets: 1, pace: paceSegs(lowSegsPerSec)})
		if err != nil {
			return nil, err
		}
		res.absorb(p)
		res.set("alert_latency_low_p90_ms", percentile(p.latMs, 90), "ms", len(p.latMs))
		reportPaced(p, 0)
		if err := coldStarts(); err != nil {
			return nil, err
		}
	}

	clean, err := h.stop()
	if err != nil {
		return nil, err
	}
	if !clean {
		res.fail("drain was not clean")
	}
	peak, samples := rss.stop()
	res.set("peak_rss_mb", peak, "MB", samples)
	res.set("setup_s", median(setupS), "s", len(setupS))
	return res, nil
}

// reportPaced prints a paced phase's generator lateness and flags the
// phase invalid when the generator ran later than the latency it
// measured.
func reportPaced(p *phaseResult, mbps float64) {
	lateP99, latP50 := percentile(p.lateMs, 99), percentile(p.latMs, 50)
	verdict := "valid"
	if lateP99 > latP50 {
		verdict = "INVALID: the generator ran later than the median latency it measured"
	}
	rate := fmt.Sprintf("%d segments/s", lowSegsPerSec)
	if mbps > 0 {
		rate = fmt.Sprintf("%g Mbit/s", mbps)
	}
	fmt.Printf("# %s: open loop at %s, %d sets, %d segments, %.2f s, %d canaries, gen.late_p99_ms %.3f (%s)\n",
		p.name, rate, p.sets, p.segs, p.wall.Seconds(), len(p.latMs), lateP99, verdict)
}

// print writes the named metrics (nil: all of them, sorted) with unit
// and sample count, then the contract's JSON line.
func (r *result) print(w *workload, names []string) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s has no value (no samples)", name)
			m.Value = 0
			r.Metrics[name] = m
		}
	}
	if names == nil {
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	fmt.Printf("workload %s\n", w.name)
	for _, name := range names {
		m, ok := r.Metrics[name]
		if !ok {
			continue
		}
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", name, m.Value, m.Unit, n)
	}
	loss := 0.0
	if r.Attempted > 0 {
		loss = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-34s %14.6g frac  (failed=%d attempted=%d)\n", "loss_frac", loss, r.Failed, r.Attempted)
	for _, msg := range r.problems {
		fmt.Printf("  MISMATCH %s\n", msg)
	}
	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]wireMetric{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = wireMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Printf("%s\n", line)
}

// runFile is a run's result file. It carries the host fingerprint, so
// that snapshots from different machines are never compared silently.
type runFile struct {
	Host     host              `json:"host"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Correct  bool              `json:"correct"`
	Metrics  map[string]metric `json:"metrics"`
	*traceDetail
}

func save(name string, v runFile) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), b, 0o644)
}

// outDir holds result and trace files; it is listed in .gitignore.
const outDir = "bench/out"

const maxImbalance = 1.15

var e2eNames = []string{
	"goodput_gbps", "cpu_ns_per_byte", "alert_latency_p50_ms", "alert_latency_p90_ms",
	"alert_latency_low_p90_ms", "peak_rss_mb", "setup_s",
}

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed: the server only ever sees inputs generated from it")
	seconds := flag.Float64("seconds", 20, "measuring time per workload, shared by the phases")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace-<workload>.json")
	phase := flag.String("phase", "", "end-to-end run only: run just this phase (sat, mid or low)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 || (*phase != "" && *phase != "sat" && *phase != "mid" && *phase != "low") {
		flag.Usage()
		os.Exit(2)
	}
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w := workloadByName(*name); w != nil {
		run = []workload{*w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	ok := true
	for _, w := range run {
		var res *result
		var detail *traceDetail
		var err error
		kind, names := "e2e", e2eNames
		if *trace == 1 {
			kind, names = "trace", nil
			res, detail, err = runTraced(w, *seed, *seconds)
		} else {
			res, err = runE2E(w, *seed, *seconds, *phase)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		// With two shards and a hash that spreads flows, no shard should
		// carry much more than half: beyond this the run measures a
		// lopsided pipeline, not the program.
		if res.imbalance > maxImbalance {
			res.fail("sat: shard imbalance %.3f exceeds %.2f", res.imbalance, maxImbalance)
		}
		res.print(&w, names)
		file := runFile{fingerprint(), w.name, *seed, *seconds, res.Correct, res.Metrics, detail}
		if err := save(kind+"-"+w.name+".json", file); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

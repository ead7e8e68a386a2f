package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"vpatch/ids"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
)

// testScale shrinks every workload's corpus set for the harness tests.
const testScale = 32

func TestCorpusDeterminism(t *testing.T) {
	attack := patterns.GenerateS1(ruleSetSeed)
	for _, w := range workloads {
		w := w.scaled(testScale)
		a := buildCorpus(&w, w.flows, 7, attack)
		b := buildCorpus(&w, w.flows, 7, attack)
		c := buildCorpus(&w, w.flows, 8, attack)
		if a.hash != b.hash || len(a.units) != len(b.units) {
			t.Errorf("%s: same seed gave corpus hashes %x and %x", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus hash %x", w.name, a.hash)
		}
		// Every flow is delivered whole by heads plus tails, and carries
		// exactly one canary unit.
		canaries := 0
		var payload uint64
		for _, u := range a.units {
			payload += uint64(u.payload)
			if u.canary {
				canaries++
			}
		}
		if canaries != a.flows {
			t.Errorf("%s: %d canary units for %d flows", w.name, canaries, a.flows)
		}
		if !w.reorder && payload != a.streamBytes {
			t.Errorf("%s: units carry %d bytes, streams hold %d", w.name, payload, a.streamBytes)
		}
		if w.reorder && payload <= a.streamBytes {
			t.Errorf("%s: retransmits should make %d delivered bytes exceed %d stream bytes", w.name, payload, a.streamBytes)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got == got {
		t.Errorf("percentile of no samples = %g, want NaN", got)
	}
}

func TestPaceDueTimes(t *testing.T) {
	// 100 Mbit/s is 80 ns per payload byte; 400 segments/s is 2.5 ms each.
	if got := paceMbps(100).due(1460, 1); got != 116800 {
		t.Errorf("second 1460 B segment at 100 Mbit/s is due at %d ns, want 116800", got)
	}
	if got := paceMbps(20).due(64*1000, 1000); got != 25_600_000 {
		t.Errorf("1001st 64 B segment at 20 Mbit/s is due at %d ns, want 25600000", got)
	}
	if got := paceSegs(lowSegsPerSec).due(123456, 400); got != int64(time.Second) {
		t.Errorf("401st segment at 400/s is due at %d ns, want 1 s", got)
	}
	if (pace{}).on() || !paceSegs(1).on() || !paceMbps(1).on() {
		t.Error("pace.on misreports")
	}
}

func TestWindowNeverExceedsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := window{limit: satWindow}
	var done uint64
	for i := 0; i < 100000; i++ {
		n := uint64(1 + rng.Intn(satGroup*1460))
		if w.admit(n, done) {
			if out := w.admitted - done; out > satWindow {
				t.Fatalf("step %d: %d bytes outstanding exceed the %d-byte window", i, out, satWindow)
			}
		} else if w.admitted+n-done <= satWindow {
			t.Fatalf("step %d: refused %d bytes with %d outstanding", i, n, w.admitted-done)
		}
		// The scheduler takes a random share of what is outstanding.
		done += uint64(rng.Int63n(int64(w.admitted-done) + 1))
	}
	if w.admitted == 0 {
		t.Fatal("window admitted nothing")
	}
}

func TestAlertMultisetIsOrderIndependent(t *testing.T) {
	cid := alertIDs{canaryRule: 3, canaryPat: -2}
	var alerts []ids.Alert
	for f := uint32(0); f < 16; f++ {
		k := netsim.FlowKey{SrcIP: f * 7919, DstIP: 100 + f, SrcPort: uint16(f * 13), DstPort: 80}
		alerts = append(alerts, ids.Alert{Flow: k, RuleID: 3, PatternID: -1}) // canary
		for j := int64(0); j < 20; j++ {
			alerts = append(alerts, ids.Alert{Flow: k, RuleID: int32(j % 5 * 2), PatternID: -1, StreamOffset: j * 11})
		}
	}
	sum := func(as []ids.Alert) multiset {
		ta := newTally(100, 16, cid, time.Now())
		ta.openPass(0)
		for _, a := range as {
			ta.onAlert(a)
		}
		return ta.sum()
	}
	want := sum(alerts)
	if want.canaries != 16 || want.n != 16*20 {
		t.Fatalf("tally counted %+v, want 16 canaries and 320 alerts", want)
	}
	shuffled := append([]ids.Alert(nil), alerts...)
	rand.New(rand.NewSource(2)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := sum(shuffled); got != want {
		t.Errorf("shuffled alerts sum to %+v, in-order to %+v", got, want)
	}
	moved := append([]ids.Alert(nil), alerts...)
	moved[5].StreamOffset++
	if got := sum(moved); got.h == want.h {
		t.Error("moving one alert by one byte left the multiset hash unchanged")
	}
	if twice := want.times(2); twice.n != 2*want.n || twice.h != 2*want.h {
		t.Errorf("two sets sum to %+v", twice)
	}
}

// TestSmokeEveryWorkload runs every workload's three phases end to end
// at 1/32 scale: real server, loopback, oracle, clean drain.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w.scaled(testScale)
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runE2E(w, 3, 0.3, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("loss: failed=%d attempted=%d problems=%v", res.Failed, res.Attempted, res.problems)
			}
			for _, name := range e2eNames {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
					t.Errorf("metric %s = %v, want a positive number", name, m.Value)
				}
			}
		})
	}
}

// TestLadderClimbs runs the traced run's layer ladder on a small set.
func TestLadderClimbs(t *testing.T) {
	w := workloadByName("reorder_512").scaled(testScale)
	in := generate(w, 5, time.Second)
	h, db, _, err := setUp(&w, in.text)
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	tr := &tracer{epoch: h.epoch}
	l, err := tr.climb(tr.add(0, "test", 0, 0), &w, db, in.main)
	if err != nil {
		t.Fatal(err)
	}
	if int(l.segs) != len(in.main.units) || l.bytes != in.main.streamBytes {
		t.Errorf("ladder saw %d segments and %d bytes, corpus has %d and %d", l.segs, l.bytes, len(in.main.units), in.main.streamBytes)
	}
	if len(l.rounds) != ladderRounds {
		t.Fatalf("%d rounds, want %d", len(l.rounds), ladderRounds)
	}
	for i, r := range l.rounds {
		for name, cpu := range map[string]float64{"gen": r.gen, "wire": r.wire, "reasm": r.reasm, "lit": r.lit, "rule": r.rule, "disp": r.disp, "sched": r.sched, "filter": r.filter} {
			if !(cpu > 0) {
				t.Errorf("round %d: rung %s measured %g CPU ns", i+1, name, cpu)
			}
		}
	}
	if got := l.layer("R4"); !(got > 0) {
		t.Errorf("median R4 cost is %g", got)
	}
	if l.pendingPeak == 0 {
		t.Error("reordered delivery buffered nothing in the reassembler")
	}
	if l.litScan.BytesScanned == 0 || l.ruleScan.BytesScanned == 0 {
		t.Error("observer counters stayed empty")
	}
	if want := 1 + ladderRounds*(1+7); len(tr.spans) != want {
		t.Errorf("%d spans, want %d: the root, and per round one span and seven rungs", len(tr.spans), want)
	}
}

// TestContractMatchesCode holds BENCHMARK.json to what the command
// prints: the workloads, every end-to-end metric of an untraced run and
// every per-layer metric of a traced one, by name and unit.
func TestContractMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var contract struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code (or their reasons differ)", i, got.Name, w.name)
		}
	}

	w := workloadByName("http_1460").scaled(testScale)
	check := func(kind string, want []entry, got map[string]metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the run printed %d", kind, len(want), len(got))
		}
		for _, e := range want {
			if m, ok := got[e.Name]; !ok {
				t.Errorf("%s: the run did not print %s", kind, e.Name)
			} else if m.Unit != e.Unit {
				t.Errorf("%s: %s is in %q in BENCHMARK.json and %q in the run", kind, e.Name, e.Unit, m.Unit)
			}
		}
	}
	e2e, err := runE2E(w, 4, 0.3, "")
	if err != nil {
		t.Fatal(err)
	}
	check("end_to_end", contract.EndToEnd, e2e.Metrics)
	traced, detail, err := runTraced(w, 4, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	check("per_layer", contract.PerLayer, traced.Metrics)
	if traced.Failed != 0 || !traced.Correct {
		t.Errorf("traced run lost alerts: %v", traced.problems)
	}
	// One root, one child per rung or phase, three spans per canary.
	roots, canaries := 0, 0
	for _, sp := range detail.Spans {
		if sp.Parent == 0 {
			roots++
		}
		if sp.Name == "canary" {
			canaries++
		}
		if sp.End < sp.Start {
			t.Errorf("span %d %s ends before it starts", sp.ID, sp.Name)
		}
	}
	if roots != 1 || canaries == 0 || len(detail.Layers) == 0 || len(detail.QueueBytes) == 0 {
		t.Errorf("trace has %d roots, %d canary spans, %d layers, %d queue samples", roots, canaries, len(detail.Layers), len(detail.QueueBytes))
	}
}

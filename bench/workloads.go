package main

import (
	"fmt"
	"strings"
	"time"

	"vpatch/internal/patterns"
	"vpatch/internal/resil"
)

// The server under test is configured exactly as cmd/vpatch-serve's
// flag defaults; changing any of these changes what the benchmark
// measures, so they are constants, not flags.
const (
	shards        = 2
	maxFlows      = 1 << 20
	flowTimeout   = 60 * time.Second
	flowPending   = 256 << 10
	totalPending  = 64 << 20
	verifierFlow  = resil.DefaultFlowBudget
	tenantName    = "default"
	ingestBatch   = 64 // serve's streamBatchSegs: segments per scheduler batch
	laneWidth     = 8  // vpatch.Options zero value: W=8 lanes
	satWindow     = 2 << 20
	satGroup      = 64 // frames per write and per window poll in sat
	pacedGroup    = 16 // frames per write in the paced phases
	lowSegsPerSec = 400
	ruleSetSeed   = 1 // the rule DB is configuration, not input: fixed across --seed
)

// Canary: one extra rule/pattern whose text opens every flow, so each
// flow yields one timed alert.
const (
	canaryText = "VPBENCH-CANARY-7f3a9c51"
	canarySID  = 999999
)

// pcreRules is how many content+pcre rules ride along in rule mode
// (shaped like experiments.ruleSweepRuleText); their anchors are
// injected into every hundredth flow, half of the sites verifying.
const pcreRules = 16

func pcreAnchor(i int) string { return fmt.Sprintf("VPBENCH%02dQZ", i) }

// workload is one traffic mix. Names are stable identifiers: every
// later performance claim in this repo is made in them.
type workload struct {
	name string
	why  string
	// ruleMode selects the rule-semantics DB (rules_s1) over the
	// literal DB of the full S1 set.
	ruleMode bool
	// segBytes is the delivery-unit MTU, flowBytes the stream length
	// of each flow, flows the flows of one corpus set, concurrent how
	// many of them are open at any time.
	segBytes, flowBytes, flows, concurrent int
	// reorder delivers each flow window-8 reordered with 64 B
	// overlapping retransmits and 5 % duplicates.
	reorder bool
	// midMbps is the frozen open-loop payload rate of the mid phase:
	// about 30 % of the sat goodput measured when the benchmark was
	// defined, rounded to a 1-2-5 step. It is absolute on purpose, so a
	// faster server shows lower latency instead of a harder test.
	midMbps float64
}

var workloads = []workload{
	{
		name: "http_1460", ruleMode: true,
		why:      "ISCX-day2-shaped HTTP in 1460 B in-order segments against the S1 rule DB: filter and verify rounds dominate, per-segment layers do little (the paper's Fig. 4 analogue)",
		segBytes: 1460, flowBytes: 32 << 10, flows: 256, concurrent: 256, midMbps: 100,
	},
	{
		name: "small_64", ruleMode: true,
		why:      "the same bytes and DB in 64 B segments and 2 KiB flows: frame decode, socket reads, scheduling, handoff and flow set-up dominate, per-byte scan cost matters least (Fig. 5b regime)",
		segBytes: 64, flowBytes: 2 << 10, flows: 1024, concurrent: 256, midMbps: 20,
	},
	{
		name: "reorder_512", ruleMode: true, reorder: true,
		why:      "the same bytes and DB with window-8 reordering, 64 B overlapping retransmits and 5 % duplicates: takes reassembly's buffering and trim path instead of its in-order fast path",
		segBytes: 512, flowBytes: 32 << 10, flows: 256, concurrent: 256, midMbps: 50,
	},
	{
		name:     "alert_storm",
		why:      "the http_1460 traffic against the literal S1 DB including 1-3 B patterns, one alert per occurrence: alert fan-out and the verify round dominate",
		segBytes: 1460, flowBytes: 32 << 10, flows: 256, concurrent: 256, midMbps: 50,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled shrinks the corpus set for the harness tests; rates, segment
// and flow sizes stay.
func (w workload) scaled(div int) workload {
	w.flows = max(w.flows/div, 2)
	w.concurrent = min(w.concurrent, w.flows)
	return w
}

// ruleText renders the workload's rule file: what an operator would
// hand to `vpatch-serve -rules` (with -rule-semantics in rule mode).
func (w *workload) ruleText() string {
	var b strings.Builder
	set := patterns.GenerateS1(ruleSetSeed)
	for i := range set.Patterns() {
		p := &set.Patterns()[i]
		if w.ruleMode && p.Len() < 4 {
			continue
		}
		b.WriteString(patterns.EncodeRule(p, 1000+i))
		b.WriteByte('\n')
	}
	if w.ruleMode {
		for i := 0; i < pcreRules; i++ {
			fmt.Fprintf(&b, "alert tcp any any -> any any (msg:\"bench pcre %d\"; content:\"%s\"; pcre:\"/[a-f]{4}/\"; sid:%d;)\n",
				i, pcreAnchor(i), 9000+i)
		}
	}
	fmt.Fprintf(&b, "alert tcp any any -> any any (msg:\"bench canary\"; content:\"%s\"; sid:%d;)\n", canaryText, canarySID)
	return b.String()
}

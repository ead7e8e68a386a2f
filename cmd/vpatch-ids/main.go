// Command vpatch-ids runs the full NIDS pipeline over a pcap capture:
// flow reassembly with lifecycle management, per-service rule groups,
// and multi-pattern matching with any of the library's engines.
//
// Usage:
//
//	vpatch-ids -rules web.rules -pcap capture.pcap
//	vpatch-ids -rules web.rules -pcap capture.pcap -algo dfc -top 10
//	vpatch-ids -db all-groups.vpdb -pcap capture.pcap
//	vpatch-ids -rules web.rules -pcap capture.pcap -shards 8 -max-flows 65536
//
// -db loads a precompiled rule-group database written by
// `vpatch-compile -ids` instead of compiling the rules at startup.
// Databases compiled with -rule-semantics carry the full rule tier:
// alerts then report completed rules (sid + msg) instead of raw
// literal hits, and -metrics includes the regex-verifier counters.
//
// -alerts-out writes every alert as one JSON object per line ("-" for
// stdout): rule sid/msg or pattern id, the flow 5-tuple, and the
// stream offset — the same shape vpatch-serve's /v1/alerts streams.
//
// -shards N hash-partitions flows across N worker goroutines (each with
// its own reassembler and scan sessions over the shared compiled
// groups); per-shard lifecycle stats are merged at exit. Every -shards
// value runs the same dispatcher pipeline: -shards 1 is one worker
// goroutine fed by the capture loop. -max-flows, -flow-timeout,
// -flow-pending and -total-pending bound the pipeline's memory per
// shard — flows idle past the timeout (on the capture clock) or beyond
// the cap are evicted, over-budget out-of-order bytes are dropped, and
// the counts are reported.
//
// -verifier-flow-budget arms the match-flood defense: each flow gets a
// lifetime verifier budget in modeled cycles, and a flow that spends it
// (a crafted anchor flood) degrades to literal-only alerting instead of
// monopolizing the regex verifier. The degradation figures print as an
// "overload:" line.
//
// Captures can be produced with `vpatch-gen -pcap` or any tool writing
// classic little-endian libpcap Ethernet captures in the shape netsim
// emits (see internal/netsim).
//
// Truncated captures (a cut-short tcpdump, a capture still being
// written) are analyzed up to the damage: the readable prefix is
// processed normally, a warning goes to stderr, and the process exits
// with code 3 so scripts can tell "partial input" from "failed" (1)
// and "bad usage" (2). SIGINT/SIGTERM stop ingestion early, drain the
// pipeline (flushing all shards so buffered alerts surface), print the
// final stats, and exit with 128+signal.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/resil"
)

// alertRec is the JSONL alert shape shared with vpatch-serve's
// /v1/alerts stream (which adds a tenant field).
type alertRec struct {
	SID       int64      `json:"sid,omitempty"`
	Msg       string     `json:"msg,omitempty"`
	Rule      int32      `json:"rule"`
	Pattern   int32      `json:"pattern"`
	Proto     string     `json:"proto"`
	SrcIP     netip.Addr `json:"src_ip"`
	SrcPort   uint16     `json:"src_port"`
	DstIP     netip.Addr `json:"dst_ip"`
	DstPort   uint16     `json:"dst_port"`
	StreamOff int64      `json:"stream_off"`
}

// ip4 converts a host-order IPv4 address to netip.Addr, which marshals
// as the dotted-quad string.
func ip4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command. It returns the exit status instead of
// exiting, so the deferred -alerts-out flush runs on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vpatch-ids", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesPath := fs.String("rules", "", "Snort-style rules file")
	dbPath := fs.String("db", "", "precompiled rule-group .vpdb database (instead of -rules)")
	pcapPath := fs.String("pcap", "", "libpcap capture to analyze (required)")
	algoName := fs.String("algo", "vpatch", "matching engine: vpatch spatch dfc vectordfc ac")
	top := fs.Int("top", 5, "print the N most-alerting rules")
	shards := fs.Int("shards", 1, "worker shards (flows hash-partitioned across goroutines)")
	maxFlows := fs.Int("max-flows", 1<<20, "per-shard cap on tracked flows (0 = unlimited)")
	flowTimeout := fs.Duration("flow-timeout", 60*time.Second, "evict flows idle this long on the capture clock (0 = never)")
	flowPending := fs.Int("flow-pending", 256<<10, "per-flow out-of-order byte budget (0 = unlimited)")
	totalPending := fs.Int("total-pending", 64<<20, "per-shard out-of-order byte budget (0 = unlimited)")
	showMetrics := fs.Bool("metrics", false, "instrument scans and print the merged matcher+lifecycle counters (costs a few %)")
	alertsOut := fs.String("alerts-out", "", `write every alert as a JSON line to this file ("-" = stdout)`)
	ruleSem := fs.Bool("rule-semantics", false, "compile -rules with full rule semantics (offsets, nocase, pcre verifier)")
	verifierBudget := fs.Int64("verifier-flow-budget", 0, "per-flow verifier budget in modeled cycles; match-flood flows degrade to literal-only alerting past it (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if (*rulesPath == "") == (*dbPath == "") || *pcapPath == "" {
		fs.Usage()
		return 2
	}
	limits := netsim.Limits{
		MaxFlows:          *maxFlows,
		IdleTimeoutMicros: uint64(flowTimeout.Microseconds()),
		FlowPendingBytes:  *flowPending,
		TotalPendingBytes: *totalPending,
	}

	pf, err := os.Open(*pcapPath)
	if err != nil {
		return fatal(stderr, err)
	}
	segs, err := netsim.ReadPcap(pf)
	pf.Close()
	truncated := err != nil && len(segs) > 0
	if err != nil {
		if !truncated {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stderr, "vpatch-ids: warning: truncated capture (%v); analyzing the %d readable segments\n",
			err, len(segs))
	}

	p := pipeline{shards: *shards, limits: limits, observe: *showMetrics}
	// The match-flood defense is opt-in for offline analysis: armed, it
	// also observes counters so the degradation figures are real.
	if *verifierBudget > 0 {
		p.budget = resil.VerifierBudget{PerFlow: *verifierBudget, Price: resil.DefaultPrice()}
	}
	if *alertsOut != "" {
		out := stdout
		if *alertsOut != "-" {
			f, err := os.Create(*alertsOut)
			if err != nil {
				return fatal(stderr, err)
			}
			defer f.Close()
			out = f
		}
		alertW := bufio.NewWriter(out)
		defer alertW.Flush()
		p.alerts = alertW
	}

	var engine *ids.Engine
	if *dbPath != "" {
		start := time.Now()
		df, err := os.Open(*dbPath)
		if err != nil {
			return fatal(stderr, err)
		}
		engine, err = ids.ReadDB(df, nil)
		df.Close()
		if err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stderr, "loaded rule-group database in %s\n",
			time.Since(start).Round(time.Microsecond))
	} else {
		rf, err := os.Open(*rulesPath)
		if err != nil {
			return fatal(stderr, err)
		}
		alg, err := vpatch.ParseAlgorithm(*algoName)
		if err != nil {
			return fatal(stderr, err)
		}
		engine, err = compileRules(rf, alg, *ruleSem)
		rf.Close()
		if err != nil {
			return fatal(stderr, err)
		}
	}
	set := engine.Set()

	// SIGINT/SIGTERM stop ingestion at the next batch boundary; the
	// pipeline then drains normally so every buffered alert surfaces and
	// the final stats are real.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	p.stop = sigc
	res := p.run(engine, segs)
	signal.Stop(sigc)
	stats, counters, gotSig := res.stats, res.counters, res.stopped
	if gotSig != nil {
		fmt.Fprintf(stderr, "vpatch-ids: %v after %d/%d segments; draining and reporting\n",
			gotSig, res.fed, len(segs))
	}

	bytes := 0
	for _, s := range segs {
		bytes += len(s.Payload)
	}
	fmt.Fprintf(stdout, "capture: %d segments, %d payload bytes\n", len(segs), bytes)
	fmt.Fprintf(stdout, "engine:  %s over %d rules in %d groups, %d shard(s)\n",
		engine.Algorithm(), set.Len(), len(engine.GroupSizes()), *shards)
	fmt.Fprintf(stdout, "flows:   %d peak, %d closed, %d evicted, %d bytes dropped\n",
		stats.PeakFlows, stats.FlowsClosed, stats.FlowsEvicted, stats.BytesDropped)
	if p.budget.Armed() {
		fmt.Fprintf(stdout, "overload: %d flows degraded to literal-only, %d budget denials, %d panics recovered, %d flows quarantined\n",
			counters.DegradedFlows, counters.VerifierBudgetExhausted,
			counters.PanicsRecovered, counters.FlowsQuarantined)
	}
	fmt.Fprintf(stdout, "result:  %d alerts in %s (%.3f Gbps)\n",
		res.total, res.elapsed.Round(time.Millisecond),
		float64(bytes)*8/float64(res.elapsed.Nanoseconds()))
	if stats.PendingBytes > 0 {
		fmt.Fprintf(stdout, "warning: %d bytes stuck in reassembly (packet loss?)\n", stats.PendingBytes)
	}
	if *showMetrics {
		// One merged line: matcher event counters plus the lifecycle
		// figures folded in (evicted/dropped/peakflows).
		stats.MergeInto(&counters)
		fmt.Fprintf(stdout, "metrics: %s\n", &counters)
	}

	type rc struct {
		id int32
		n  int
	}
	var rules []rc
	for id, n := range res.perRule {
		rules = append(rules, rc{id, n})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].n > rules[j].n })
	if len(rules) > *top {
		rules = rules[:*top]
	}
	fmt.Fprintf(stdout, "\ntop rules:\n")
	rset := engine.Rules()
	for _, r := range rules {
		if rset != nil {
			rr := &rset.Rules[r.id]
			msg := rr.Msg
			if msg == "" {
				msg = fmt.Sprintf("rule %d", rr.ID)
			}
			fmt.Fprintf(stdout, "  sid %5d  %6d alerts  %s\n", rr.SID, r.n, msg)
			continue
		}
		p := set.Pattern(r.id)
		fmt.Fprintf(stdout, "  sid %5d  %6d alerts  %q\n", r.id+1, r.n, truncate(p.Data, 40))
	}

	if gotSig != nil {
		if sig, ok := gotSig.(syscall.Signal); ok {
			return 128 + int(sig)
		}
		return 130
	}
	if truncated {
		return 3 // results above cover only the readable prefix
	}
	return 0
}

// compileRules compiles a Snort-style rule stream into an IDS engine
// with no default shard: literal alerts, or completed-rule alerts when
// ruleSem is set.
func compileRules(r io.Reader, alg vpatch.Algorithm, ruleSem bool) (*ids.Engine, error) {
	opt := vpatch.Options{Algorithm: alg}
	if ruleSem {
		rset, err := vpatch.ParseRuleSet(r, vpatch.RuleParseOptions{})
		if err != nil {
			return nil, err
		}
		return ids.NewRuleEngine(rset, opt, nil)
	}
	set, err := patterns.ParseRules(r, patterns.ParseOptions{})
	if err != nil {
		return nil, err
	}
	return ids.NewEngine(set, opt, nil)
}

// pipeline is one offline run's configuration.
type pipeline struct {
	shards  int
	limits  netsim.Limits
	budget  resil.VerifierBudget // armed: flows degrade past it, counters observed
	observe bool                 // collect the matcher counters
	alerts  io.Writer            // one JSON line per alert; nil writes none
	stop    <-chan os.Signal     // ends ingestion at a batch boundary; nil never does
}

// result is what a pipeline run reports.
type result struct {
	total    int
	perRule  map[int32]int // alerts per rule, or per pattern for literal alerts
	fed      int           // segments handed to the dispatcher
	stopped  os.Signal     // the signal that ended ingestion early, if any
	stats    netsim.Stats
	counters vpatch.Counters
	elapsed  time.Duration
}

// run feeds segs through an engine dispatcher of p.shards workers, in
// slab-sized batches, then drains it. Each alert is tallied and, when
// p.alerts is set, written as one alertRec JSON line.
func (p pipeline) run(engine *ids.Engine, segs []netsim.Segment) result {
	res := result{perRule: map[int32]int{}}
	rset := engine.Rules()
	// Every worker goroutine reports through emit.
	var mu sync.Mutex
	emit := func(a ids.Alert) {
		mu.Lock()
		defer mu.Unlock()
		res.total++
		if a.RuleID >= 0 {
			res.perRule[a.RuleID]++
		} else {
			res.perRule[a.PatternID]++
		}
		if p.alerts == nil {
			return
		}
		rec := alertRec{
			Rule: a.RuleID, Pattern: a.PatternID, Proto: "tcp",
			SrcIP: ip4(a.Flow.SrcIP), SrcPort: a.Flow.SrcPort,
			DstIP: ip4(a.Flow.DstIP), DstPort: a.Flow.DstPort,
			StreamOff: a.StreamOffset,
		}
		if rset != nil && a.RuleID >= 0 {
			r := &rset.Rules[a.RuleID]
			rec.SID, rec.Msg = r.SID, r.Msg
		}
		if b, err := json.Marshal(rec); err == nil {
			p.alerts.Write(append(b, '\n'))
		}
	}
	start := time.Now()
	d := engine.NewDispatcher(p.shards, p.limits, emit)
	// ReadPcap gives every segment its own payload buffer that stays
	// valid for the run, so the dispatcher may take them by reference
	// instead of defensively copying into arena chunks.
	d.SetZeroCopy(true)
	if p.budget.Armed() {
		d.SetVerifierBudget(p.budget)
	}
	var obs *ids.PipelineObserver
	if p.observe || p.budget.Armed() {
		obs = d.Observe()
	}
	// Batched handoff: slab-sized chunks amortize the per-segment
	// channel operations, checking for a stop at chunk boundaries.
	for lo := 0; lo < len(segs) && res.stopped == nil; lo += ids.DefaultDispatchBatch {
		select {
		case res.stopped = <-p.stop:
			continue
		default:
		}
		hi := min(lo+ids.DefaultDispatchBatch, len(segs))
		d.HandleBatch(segs[lo:hi])
		res.fed = hi
	}
	res.stats = d.Close() // drains workers, flushes every shard, merges stats
	if obs != nil {
		res.counters = obs.Counters()
	}
	res.elapsed = time.Since(start)
	return res
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "vpatch-ids:", err)
	return 1
}

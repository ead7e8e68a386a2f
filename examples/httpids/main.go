// httpids is a miniature network intrusion detection pipeline — the
// paper's motivating application. It generates a Snort-sized web rule
// set, synthesizes HTTP traffic with embedded attacks, and scans the
// traffic with every algorithm the paper evaluates, reporting alerts and
// per-algorithm throughput (the single-thread comparison of Fig. 4).
// It then replays the same traffic as thousands of short-lived flows —
// reordered, duplicated segments with FIN teardown — through the
// bounded-memory ids pipeline, showing flow lifecycle in action.
//
//	go run ./examples/httpids [-size MB] [-algo name]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

func main() {
	sizeMB := flag.Int("size", 8, "traffic volume in MB")
	algoName := flag.String("algo", "", "run only this algorithm (vpatch spatch dfc vectordfc ac); default: the paper's Fig. 4 lineup")
	flag.Parse()

	// Rule set: the web-applicable subset of a Snort-v2.9.7-sized
	// synthetic set (~2K patterns), as in the paper's Fig. 4a.
	ruleSet := patterns.GenerateS1(1).WebSubset()
	fmt.Println(patterns.DescribeSet("rules", ruleSet))

	// Traffic: HTTP sessions with a low rate of embedded attacks.
	data := traffic.Synthesize(traffic.ISCXDay2, *sizeMB<<20, 42, ruleSet)
	fmt.Printf("traffic: %d MB of synthesized HTTP sessions\n\n", *sizeMB)

	algos := []vpatch.Algorithm{
		vpatch.AlgoAhoCorasick, vpatch.AlgoDFC, vpatch.AlgoVectorDFC,
		vpatch.AlgoSPatch, vpatch.AlgoVPatch,
	}
	if *algoName != "" {
		alg, err := vpatch.ParseAlgorithm(*algoName)
		if err != nil {
			log.Fatal(err)
		}
		algos = []vpatch.Algorithm{alg}
	}

	var baseline float64
	for _, alg := range algos {
		eng, err := vpatch.Compile(ruleSet, vpatch.Options{Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		matches := vpatch.Count(eng.NewSession(), data)
		elapsed := time.Since(start)
		gbps := float64(len(data)) * 8 / float64(elapsed.Nanoseconds())
		if alg == vpatch.AlgoDFC {
			baseline = gbps
		}
		rel := ""
		if baseline > 0 {
			rel = fmt.Sprintf("  (%.2fx vs DFC)", gbps/baseline)
		}
		fmt.Printf("%-14s %9d alerts  %7.3f Gbps%s\n", alg, matches, gbps, rel)
	}

	// Show a few concrete alerts from the winning engine, as an IDS
	// console would.
	fmt.Println("\nsample alerts (V-PATCH):")
	eng, _ := vpatch.Compile(ruleSet, vpatch.Options{})
	shown := 0
	eng.Scan(data, nil, func(match vpatch.Match) {
		if shown >= 5 {
			return
		}
		p := ruleSet.Pattern(match.PatternID)
		if p.Len() < 6 {
			return // skip the noisy short-token hits for display
		}
		shown++
		end := int(match.Pos) + p.Len()
		fmt.Printf("  ALERT sid=%d offset=%d payload=%q\n",
			match.PatternID+1, match.Pos, data[match.Pos:end])
	})

	// The same traffic as a NIDS actually sees it: thousands of
	// short-lived flows, segments reordered and duplicated, every flow
	// FIN-terminated. The ids pipeline reassembles, routes each flow to
	// its protocol rule group, and keeps memory bounded: a flow cap, an
	// idle timeout on the capture clock, and out-of-order byte budgets.
	fmt.Println("\n== flow pipeline (bounded memory) ==")
	const nFlows = 2000
	streams := make(map[netsim.FlowKey][]byte, nFlows)
	per := len(data) / nFlows
	for i := 0; i < nFlows; i++ {
		streams[netsim.FlowKey{
			SrcIP: 0x0A000001 + uint32(i), DstIP: 0xC0A80001,
			SrcPort: uint16(10000 + i), DstPort: 80,
		}] = data[i*per : (i+1)*per]
	}
	segs := netsim.Packetize(streams, netsim.PacketizeOptions{
		Jitter: 6, DuplicateFrac: 0.02, FIN: true, Seed: 7,
	})

	alerts := 0
	pipeline, err := ids.NewEngine(ruleSet, vpatch.Options{}, func(ids.Alert) { alerts++ })
	if err != nil {
		log.Fatal(err)
	}
	pipeline.SetLimits(netsim.Limits{
		MaxFlows:          512, // far fewer than the flows in the capture
		IdleTimeoutMicros: 10_000_000,
		FlowPendingBytes:  64 << 10,
		TotalPendingBytes: 8 << 20,
	})
	start := time.Now()
	for _, seg := range segs {
		pipeline.HandleSegment(seg)
	}
	pipeline.Flush()
	elapsed := time.Since(start)
	st := pipeline.Stats()
	fmt.Printf("  %d segments over %d flows: %d alerts in %s\n",
		len(segs), nFlows, alerts, elapsed.Round(time.Millisecond))
	fmt.Printf("  lifecycle: peak %d tracked flows (cap 512), %d closed, %d evicted, %d B dropped\n",
		st.PeakFlows, st.FlowsClosed, st.FlowsEvicted, st.BytesDropped)
}

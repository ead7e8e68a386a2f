package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

// The golden alert digests of CI's smoke inputs: the line count and the
// sha256 of the sorted -alerts-out lines. Every algorithm, shard count
// and database round trip must reproduce them. A change that moves one
// says why, with the old and new line counts.
const (
	goldenLiteralLines  = 130983
	goldenLiteralSHA256 = "39ae1705dc8c038bafb469b009cea6242f8f0f0809a2bc8a41f2f70f1c2b2099"
	goldenRuleLines     = 1119
	goldenRuleSHA256    = "bbda54949ad5767f306dabd055811cb1a47c814227d4ca64ed3b305483b72b61"
)

// smokeInputs builds, in memory, what CI's vpatch-ids smoke step
// generates: `vpatch-gen -rules s1 -web` and `vpatch-gen -traffic iscx2
// -size 2 -pcap -attacks-from s1`, through the same calls at seed 1.
func smokeInputs(t *testing.T) (string, []netsim.Segment) {
	t.Helper()
	rules, pcap := smokeCapture(t)
	segs, err := netsim.ReadPcap(bytes.NewReader(pcap))
	if err != nil {
		t.Fatal(err)
	}
	return rules, segs
}

// smokeCapture is smokeInputs' rules file and pcap bytes.
func smokeCapture(t *testing.T) (string, []byte) {
	t.Helper()
	const seed = 1
	web := patterns.GenerateS1(seed).WebSubset()
	var rules strings.Builder
	fmt.Fprintf(&rules, "# synthetic rule set s1 (seed %d)\n# %s\n", seed, patterns.DescribeSet("s1", web))
	for i := range web.Patterns() {
		fmt.Fprintln(&rules, patterns.EncodeRule(&web.Patterns()[i], i+1))
	}

	const flows = 8
	streams := make(map[netsim.FlowKey][]byte, flows)
	for i := 0; i < flows; i++ {
		key := netsim.FlowKey{
			SrcIP: 0x0A000001 + uint32(i), DstIP: 0xC0A80001,
			SrcPort: uint16(40000 + i), DstPort: 80,
		}
		streams[key] = traffic.Synthesize(traffic.ISCXDay2, 2<<20/flows, seed+int64(i), web)
	}
	var pcap bytes.Buffer
	if err := netsim.WritePcap(&pcap, netsim.Packetize(streams,
		netsim.PacketizeOptions{Seed: seed, Jitter: 3, FIN: true})); err != nil {
		t.Fatal(err)
	}
	return rules.String(), pcap.Bytes()
}

// TestGoldenAlertDigests pins the pipeline's answers on CI's smoke
// inputs: every algorithm, literal and rule-semantics, through the
// CLI's own compile and pipeline code at one and two shards and through
// a .vpdb round trip (WriteDB, ReadDB, one shard), must write the same
// sorted alert lines.
func TestGoldenAlertDigests(t *testing.T) {
	rules, segs := smokeInputs(t)
	// vpatch-ids' flag defaults.
	limits := netsim.Limits{
		MaxFlows:          1 << 20,
		IdleTimeoutMicros: 60e6,
		FlowPendingBytes:  256 << 10,
		TotalPendingBytes: 64 << 20,
	}
	algos := []vpatch.Algorithm{
		vpatch.AlgoVPatch, vpatch.AlgoSPatch, vpatch.AlgoDFC, vpatch.AlgoVectorDFC,
		vpatch.AlgoAhoCorasick,
	}
	for _, ruleSem := range []bool{false, true} {
		mode, wantLines, wantSum := "literal", goldenLiteralLines, goldenLiteralSHA256
		if ruleSem {
			mode, wantLines, wantSum = "rule", goldenRuleLines, goldenRuleSHA256
		}
		for _, alg := range algos {
			engine, err := compileRules(strings.NewReader(rules), alg, ruleSem)
			if err != nil {
				t.Fatalf("%s %v: %v", mode, alg, err)
			}
			check := func(name string, e *ids.Engine, shards int) {
				t.Run(fmt.Sprintf("%s/%v/%s", mode, alg, name), func(t *testing.T) {
					var out bytes.Buffer
					p := pipeline{shards: shards, limits: limits, alerts: &out}
					res := p.run(e, segs)
					lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
					slices.Sort(lines)
					sum := sha256.Sum256([]byte(strings.Join(lines, "\n") + "\n"))
					if len(lines) != wantLines || res.total != wantLines || hex.EncodeToString(sum[:]) != wantSum {
						t.Errorf("%d lines (%d alerts), sha256 %x; want %d lines, sha256 %s",
							len(lines), res.total, sum, wantLines, wantSum)
					}
				})
			}
			check("1shard", engine, 1)
			check("2shards", engine, 2)
			var db bytes.Buffer
			if _, err := engine.WriteDB(&db); err != nil {
				t.Fatal(err)
			}
			loaded, err := ids.ReadDB(&db, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("vpdb", loaded, 1)
		}
	}
}

// TestTruncatedCaptureKeepsEveryAlertLine runs the command on the smoke
// capture cut short mid-record: it exits 3, and the -alerts-out file
// holds exactly the alerts it reports, the last line whole. An exit
// from inside the command would skip the deferred flush of the alert
// writer and lose the buffered tail.
func TestTruncatedCaptureKeepsEveryAlertLine(t *testing.T) {
	rules, pcap := smokeCapture(t)
	dir := t.TempDir()
	rulesPath := filepath.Join(dir, "web.rules")
	pcapPath := filepath.Join(dir, "cut.pcap")
	outPath := filepath.Join(dir, "alerts.jsonl")
	if err := os.WriteFile(rulesPath, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pcapPath, pcap[:1500000], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rules", rulesPath, "-pcap", pcapPath, "-alerts-out", outPath}, &stdout, &stderr)
	if code != 3 {
		t.Fatalf("exit status %d, want 3 (truncated capture); stderr:\n%s", code, stderr.String())
	}
	m := regexp.MustCompile(`(?m)^result: +(\d+) alerts`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no result line in output:\n%s", stdout.String())
	}
	reported, _ := strconv.Atoi(m[1])
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if reported == 0 || len(lines) != reported {
		t.Fatalf("-alerts-out holds %d lines, the run reported %d alerts", len(lines), reported)
	}
	var rec alertRec
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("last alert line does not parse: %v: %q", err, lines[len(lines)-1])
	}
}

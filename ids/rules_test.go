package ids

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vpatch"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/rules"
)

func parseRules(t *testing.T, window int64, lines ...string) *rules.Set {
	t.Helper()
	set, err := rules.ParseRules(strings.NewReader(strings.Join(lines, "\n")), rules.ParseOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func collectRules(t *testing.T, rset *rules.Set, opt vpatch.Options, segs []netsim.Segment) []Alert {
	t.Helper()
	var alerts []Alert
	e, err := NewRuleEngine(rset, opt, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		e.HandleSegment(s)
	}
	e.Flush()
	return alerts
}

func TestRuleEngineBasic(t *testing.T) {
	rset := parseRules(t, 0,
		`alert tcp any any -> any 80 (msg:"probe"; content:"GET /"; depth:16; content:"admin"; nocase; distance:0; within:64; sid:1;)`,
		`alert tcp any any -> any 80 (msg:"tok"; content:"token="; pcre:"/[0-9a-f]{8}/"; sid:2;)`,
	)
	flows := map[netsim.FlowKey][]byte{
		key(1, 80): []byte("GET /aDmIn HTTP/1.1 token=deadbeef more"),
		key(2, 80): []byte("GET /index.html token=nothexhere"),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 8, Jitter: 4, Seed: 7, FIN: true})
	alerts := collectRules(t, rset, vpatch.Options{}, segs)

	byFlow := map[uint16][]Alert{}
	for _, a := range alerts {
		if a.PatternID != -1 {
			t.Fatalf("rule alert carries PatternID %d, want -1: %+v", a.PatternID, a)
		}
		byFlow[a.Flow.SrcPort] = append(byFlow[a.Flow.SrcPort], a)
	}
	got1 := byFlow[40001]
	sort.Slice(got1, func(i, j int) bool { return got1[i].RuleID < got1[j].RuleID })
	if len(got1) != 2 || got1[0].RuleID != 0 || got1[1].RuleID != 1 {
		t.Fatalf("flow 1 alerts: %+v, want rules 0 and 1", got1)
	}
	if got1[0].StreamOffset != 5 || got1[1].StreamOffset != 20 {
		t.Fatalf("flow 1 offsets: %+v, want final-clause starts 5 and 20", got1)
	}
	if len(byFlow[40002]) != 0 {
		t.Fatalf("flow 2 alerted: %+v", byFlow[40002])
	}
}

// TestRuleAlertsMatchReference is the cross-engine property test: rule
// evaluation over the real pipeline — every algorithm, segmentation
// with reordering, duplicates, overlapping retransmits and FIN
// teardown — must alert exactly like the naive reference (Go regexp +
// scalar clause walk over each flow's contiguous stream).
func TestRuleAlertsMatchReference(t *testing.T) {
	algos := []vpatch.Algorithm{
		vpatch.AlgoVPatch, vpatch.AlgoSPatch, vpatch.AlgoDFC, vpatch.AlgoVectorDFC,
		vpatch.AlgoAhoCorasick,
	}
	rng := rand.New(rand.NewSource(99))
	words := []string{"ab", "ba", "abc", "AB", "aB", "ca", "cab", "bc"}
	regexes := []string{"/a+b/", "/[ab]{2,4}/i", "/a.b/", "/(a|b)b*a/", "/ab|ba/", "/c[abc]*a/"}
	ports := []uint16{80, 53, 9999}
	alphabet := []byte("abcx")

	iters := 30
	if testing.Short() {
		iters = 6
	}
	for it := 0; it < iters; it++ {
		var lines []string
		for s := 0; s < 1+rng.Intn(4); s++ {
			var b strings.Builder
			fmt.Fprintf(&b, "alert tcp any any -> any %d (", ports[rng.Intn(len(ports))])
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "content:%q; ", words[rng.Intn(len(words))])
				if rng.Intn(3) == 0 {
					b.WriteString("nocase; ")
				}
				if i == 0 {
					if rng.Intn(3) == 0 {
						fmt.Fprintf(&b, "depth:%d; ", 1+rng.Intn(40))
					}
				} else if rng.Intn(2) == 0 {
					fmt.Fprintf(&b, "distance:%d; within:%d; ", rng.Intn(4), 1+rng.Intn(24))
				}
			}
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "pcre:\"%s\"; ", regexes[rng.Intn(len(regexes))])
			}
			fmt.Fprintf(&b, "sid:%d;)", s+1)
			lines = append(lines, b.String())
		}
		rset, err := rules.ParseRules(strings.NewReader(strings.Join(lines, "\n")),
			rules.ParseOptions{Window: []int64{0, 8, 32}[rng.Intn(3)]})
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", it, err, strings.Join(lines, "\n"))
		}

		flows := map[netsim.FlowKey][]byte{}
		for f := 0; f < 1+rng.Intn(3); f++ {
			stream := make([]byte, 1+rng.Intn(300))
			for i := range stream {
				stream[i] = alphabet[rng.Intn(len(alphabet))]
				if rng.Intn(4) == 0 {
					stream[i] &^= 0x20
				}
			}
			flows[key(f, ports[rng.Intn(len(ports))])] = stream
		}
		segs := netsim.Packetize(flows, netsim.PacketizeOptions{
			MTU:           1 + rng.Intn(40),
			Jitter:        rng.Intn(6),
			DuplicateFrac: 0.1,
			OverlapFrac:   0.1,
			FIN:           true,
			Seed:          rng.Int63(),
		})

		// The reference, per flow.
		type ra struct {
			flow netsim.FlowKey
			rule int32
			off  int64
		}
		var want []ra
		for k, stream := range flows {
			for _, a := range rules.RefEval(rset, stream, patterns.ProtoForPort(k.DstPort)) {
				want = append(want, ra{k, a.Rule, a.StreamOff})
			}
		}

		for _, alg := range algos {
			alerts := collectRules(t, rset, vpatch.Options{Algorithm: alg}, segs)
			var got []ra
			for _, a := range alerts {
				got = append(got, ra{a.Flow, a.RuleID, a.StreamOffset})
			}
			less := func(s []ra) func(i, j int) bool {
				return func(i, j int) bool {
					if s[i].flow != s[j].flow {
						return s[i].flow.SrcPort < s[j].flow.SrcPort
					}
					return s[i].rule < s[j].rule
				}
			}
			sort.Slice(want, less(want))
			sort.Slice(got, less(got))
			ok := len(want) == len(got)
			for i := 0; ok && i < len(want); i++ {
				ok = want[i] == got[i]
			}
			if !ok {
				t.Fatalf("iter %d alg %v:\n got %+v\nwant %+v\nrules:\n%s\nflows: %q",
					it, alg, got, want, strings.Join(lines, "\n"), flows)
			}
		}
	}
}

// TestRuleVerifierAnchorGating pins the prefilter-then-verify
// architecture on the real pipeline: without a literal anchor hit the
// regex verifier never runs, however often the regex itself would
// match the traffic.
func TestRuleVerifierAnchorGating(t *testing.T) {
	rset := parseRules(t, 0,
		`alert tcp any any -> any 80 (content:"needle"; pcre:"/[a-z ]+/"; sid:1;)`)
	var alerts []Alert
	e, err := NewRuleEngine(rset, vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	obs := observeDefault(e)

	flows := map[netsim.FlowKey][]byte{
		key(1, 80): bytes.Repeat([]byte("plain lowercase traffic without anchors "), 50),
	}
	for _, s := range netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 100, Seed: 4, FIN: true}) {
		e.HandleSegment(s)
	}
	e.Flush()
	if c := obs.Snapshot(); len(alerts) != 0 || c.VerifierRuns != 0 || c.VerifierStates != 0 {
		t.Fatalf("verifier ran without anchors: alerts %v, counters %+v", alerts, c)
	}

	flows = map[netsim.FlowKey][]byte{key(2, 80): []byte("xx needle in a haystack")}
	for _, s := range netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 6, Seed: 5, FIN: true}) {
		e.HandleSegment(s)
	}
	e.Flush()
	if len(alerts) != 1 || alerts[0].RuleID != 0 {
		t.Fatalf("want one rule alert, got %+v", alerts)
	}
	if c := obs.Snapshot(); c.VerifierRuns != 1 || c.RuleAlerts != 1 {
		t.Fatalf("counters after anchored hit: %+v", c)
	}
}

func TestRuleDBRoundTrip(t *testing.T) {
	rset := parseRules(t, 64,
		`alert tcp any any -> any 80 (msg:"a"; content:"GET /"; depth:32; content:"Admin"; nocase; distance:0; within:40; pcre:"/id=[0-9]{2,6}/"; sid:1;)`,
		`alert udp any any -> any 53 (msg:"b"; content:"abc"; sid:2;)`,
	)
	var alerts1 []Alert
	e, err := NewRuleEngine(rset, vpatch.Options{}, func(a Alert) { alerts1 = append(alerts1, a) })
	if err != nil {
		t.Fatal(err)
	}
	blob := e.SerializeDB()
	var alerts2 []Alert
	e2, err := LoadDB(blob, func(a Alert) { alerts2 = append(alerts2, a) })
	if err != nil {
		t.Fatal(err)
	}
	if e2.Rules() == nil || len(e2.Rules().Rules) != 2 {
		t.Fatalf("loaded engine lost its rules: %+v", e2.Rules())
	}
	// serialize(deserialize(x)) == x.
	blob2 := e2.SerializeDB()
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-serialized database differs")
	}
	// Same traffic, same alerts.
	flows := map[netsim.FlowKey][]byte{
		key(1, 80): []byte("GET /x admin id=1234 trailing"),
		key(2, 53): []byte("zzabczz"),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 5, Jitter: 3, Seed: 11, FIN: true})
	for _, s := range segs {
		e.HandleSegment(s)
		e2.HandleSegment(s)
	}
	e.Flush()
	e2.Flush()
	if len(alerts1) == 0 || len(alerts1) != len(alerts2) {
		t.Fatalf("alert mismatch: compiled %+v, loaded %+v", alerts1, alerts2)
	}
	for i := range alerts1 {
		if alerts1[i] != alerts2[i] {
			t.Fatalf("alert %d: compiled %+v, loaded %+v", i, alerts1[i], alerts2[i])
		}
	}
}

// TestVersion1DatabaseStillLoads pins backward compatibility: a
// version-1 (pre-rules) database — byte-identical to today's layout
// minus the rule section — must still load as a literal engine.
func TestVersion1DatabaseStillLoads(t *testing.T) {
	set := mixedRuleSet()
	var alerts []Alert
	e, err := NewEngine(set, vpatch.Options{}, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	blob := e.SerializeDB()
	// Rewrite the header's format version to 1 and fix up the trailing
	// CRC — exactly what a file written by the previous release holds.
	v1 := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint16(v1[4:], 1)
	cas := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(v1[len(v1)-4:], crc32.Checksum(v1[:len(v1)-4], cas))

	e2, err := LoadDB(v1, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatalf("version-1 database rejected: %v", err)
	}
	if e2.Rules() != nil {
		t.Fatal("version-1 database grew rules out of nowhere")
	}
	flows := map[netsim.FlowKey][]byte{key(1, 80): []byte("x http-attack-xyz y")}
	for _, s := range netsim.Packetize(flows, netsim.PacketizeOptions{Seed: 1, FIN: true}) {
		e2.HandleSegment(s)
	}
	e2.Flush()
	if len(alerts) != 1 || alerts[0].PatternID != 0 || alerts[0].RuleID != -1 {
		t.Fatalf("v1 literal alerts wrong: %+v", alerts)
	}
}

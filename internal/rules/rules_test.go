package rules

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vpatch/internal/dbfmt"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

func TestParseAndCompile(t *testing.T) {
	set, err := ParseRules(strings.NewReader(`
# comment
alert tcp any any -> any 80 (msg:"admin probe"; content:"GET /"; offset:0; depth:64; content:"admin"; nocase; distance:0; within:200; pcre:"/token=[0-9a-f]{8,32}/i"; sid:1001; rev:3; classtype:web-application-attack;)
alert tcp any any -> any 53 (msg:"plain"; content:"abc"; sid:2;)
`), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rules) != 2 {
		t.Fatalf("got %d rules", len(set.Rules))
	}
	r := &set.Rules[0]
	if r.SID != 1001 || r.Msg != "admin probe" || r.Proto != patterns.ProtoHTTP {
		t.Fatalf("rule 0 header fields: %+v", r)
	}
	if len(r.Clauses) != 2 {
		t.Fatalf("rule 0 clauses: %d", len(r.Clauses))
	}
	c0, c1 := &r.Clauses[0], &r.Clauses[1]
	if string(c0.Data) != "GET /" || c0.Offset != 0 || !c0.HasDepth || c0.Depth != 64 || c0.Nocase {
		t.Fatalf("clause 0: %+v", c0)
	}
	if string(c1.Data) != "admin" || !c1.Nocase || c1.Distance != 0 || !c1.HasWithin || c1.Within != 200 {
		t.Fatalf("clause 1: %+v", c1)
	}
	if r.Regex == nil || r.Regex.Source() != "token=[0-9a-f]{8,32}" || r.Regex.Flags() != "i" {
		t.Fatalf("rule 0 regex: %+v", r.Regex)
	}
	if set.Rules[1].Regex != nil || set.Rules[1].Proto != patterns.ProtoDNS {
		t.Fatalf("rule 1: %+v", set.Rules[1])
	}
}

// parseRule compiles a single rule line.
func parseRule(line string) (*Set, error) {
	return ParseRules(strings.NewReader(line), ParseOptions{})
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`alert tcp any any -> any 80 (msg:"no content"; sid:1;)`,
		`alert tcp any any -> any 80 (content:!"neg"; sid:1;)`,
		`alert tcp any any -> any 80 (content:"a"; content:"b"; offset:3;)`,
		`alert tcp any any -> any 80 (content:"a"; distance:3;)`,
		`alert tcp any any -> any 80 (content:"a"; within:3;)`,
		`alert tcp any any -> any 80 (nocase; content:"a";)`,
		`alert tcp any any -> any 80 (content:"a"; offset:-1;)`,
		`alert tcp any any -> any 80 (pcre:"/x/"; content:"a";)`,
		`alert tcp any any -> any 80 (content:"a"; pcre:"/x/"; pcre:"/y/";)`,
		`alert tcp any any -> any 80 (content:"a"; pcre:"/x(/";)`,
		`alert tcp any any -> any 80 (content:"a"; pcre:"noslash";)`,
		`alert tcp any any -> any 80 (content:"unterminated)`,
		`alert tcp any any -> any 80 content:"a";`,
		`alert tcp any any -> any 80 (content:"";)`,
	}
	for _, line := range bad {
		if _, err := parseRule(line); err == nil {
			t.Errorf("no error for %s", line)
		}
	}
}

func TestCompileFolding(t *testing.T) {
	set, err := ParseRules(strings.NewReader(`
alert tcp any any -> any 80 (content:"Admin"; nocase; sid:1;)
alert tcp any any -> any 53 (content:"aDmIn"; nocase; sid:2;)
alert tcp any any -> any 25 (content:"admin"; sid:3;)
alert tcp any any -> any 21 (content:"Admin"; sid:4;)
`), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One folded nocase literal shared by all four rules: rules 1/2 use it
	// directly, rules 3/4 ride it with exact re-verification.
	if n := set.Lits.Len(); n != 1 {
		t.Fatalf("got %d literals, want 1 shared folded literal", n)
	}
	p := set.Lits.Pattern(0)
	if !p.Nocase || string(p.Data) != "admin" {
		t.Fatalf("literal: %+v", p)
	}
	if p.Proto != patterns.ProtoGeneric {
		t.Fatalf("shared literal proto = %v, want Generic", p.Proto)
	}
	for ri, wantExact := range []bool{false, false, true, true} {
		cl := &set.Rules[ri].Clauses[0]
		if cl.Exact != wantExact {
			t.Errorf("rule %d Exact = %v, want %v", ri, cl.Exact, wantExact)
		}
	}
	if string(set.Rules[3].Clauses[0].Data) != "Admin" {
		t.Errorf("exact clause must keep its exact bytes")
	}
	if got := len(set.Postings(0)); got != 4 {
		t.Errorf("postings on shared literal = %d, want 4", got)
	}
}

// runEval drives the streaming evaluator the way the ids pipeline does:
// the stream arrives as segments cut at the given points, each buffer
// re-exposing the last maxLitLen-1 bytes as carry, hits delivered per
// buffer sorted by end with carry duplicates (end inside the previous
// coverage) skipped. Returns rule ID -> alert stream offset.
func runEval(t *testing.T, set *Set, stream []byte, proto patterns.Protocol, cuts []int, c *metrics.Counters) map[int32]int64 {
	t.Helper()
	ev := NewEval(set)
	fs := NewFlowState(proto)
	alerts := map[int32]int64{}
	emit := func(rule int32, off int64) {
		if _, dup := alerts[rule]; dup {
			t.Fatalf("rule %d alerted twice", rule)
		}
		alerts[rule] = off
	}
	carry := 0
	for _, p := range set.Lits.Patterns() {
		if len(p.Data)-1 > carry {
			carry = len(p.Data) - 1
		}
	}
	folded := patterns.Fold(stream)
	prevEnd := 0
	for _, cut := range cuts {
		base := prevEnd - carry
		if base < 0 {
			base = 0
		}
		buf := stream[base:cut]
		ev.FeedBuffer(fs, buf, int64(base), c, emit)
		type hit struct {
			lit  int32
			s, e int
		}
		var hits []hit
		for id := int32(0); id < int32(set.Lits.Len()); id++ {
			p := set.Lits.Pattern(id)
			// Group membership: the flow's group holds its protocol's
			// literals plus the generic ones.
			if p.Proto != patterns.ProtoGeneric && p.Proto != proto {
				continue
			}
			hay := stream
			if p.Nocase {
				hay = folded
			}
			for i := base; i+len(p.Data) <= cut; i++ {
				if e := i + len(p.Data); e > prevEnd && bytes.Equal(hay[i:e], p.Data) {
					hits = append(hits, hit{id, i, e})
				}
			}
		}
		sort.Slice(hits, func(a, b int) bool { return hits[a].e < hits[b].e })
		for _, h := range hits {
			ev.OnHit(fs, h.lit, int64(h.s), int64(h.e), buf, int64(base), c, emit)
		}
		prevEnd = cut
	}
	ev.FinishFlow(fs, c, emit)
	return alerts
}

func refAlertMap(set *Set, stream []byte, proto patterns.Protocol) map[int32]int64 {
	out := map[int32]int64{}
	for _, a := range RefEval(set, stream, proto) {
		out[a.Rule] = a.StreamOff
	}
	return out
}

func diffAlerts(t *testing.T, want, got map[int32]int64, ctx string) {
	t.Helper()
	for r, off := range want {
		if g, ok := got[r]; !ok {
			t.Errorf("%s: rule %d: reference alerts at %d, evaluator silent", ctx, r, off)
		} else if g != off {
			t.Errorf("%s: rule %d: reference offset %d, evaluator %d", ctx, r, off, g)
		}
	}
	for r, off := range got {
		if _, ok := want[r]; !ok {
			t.Errorf("%s: rule %d: evaluator alerts at %d, reference silent", ctx, r, off)
		}
	}
}

func TestClauseSpanAcrossSegments(t *testing.T) {
	set, err := parseRule(
		`alert tcp any any -> any 80 (content:"abc"; content:"def"; distance:2; within:10; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	//           0123456789012
	stream := []byte("xabcxxxdefxxx")
	want := refAlertMap(set, stream, patterns.ProtoHTTP)
	if len(want) != 1 || want[0] != 7 {
		t.Fatalf("reference sanity: %v", want)
	}
	// Cut between the two clause matches, and mid-"def".
	for _, cuts := range [][]int{{5, 13}, {8, 13}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}} {
		got := runEval(t, set, stream, patterns.ProtoHTTP, cuts, nil)
		diffAlerts(t, want, got, fmt.Sprintf("cuts %v", cuts))
	}
	// Violations: too close (distance) and too far (within) must not fire.
	for _, s := range []string{"xabcdefxxxxxx", "xabcxxxxxxxxxxxxxxxxdef"} {
		if got := runEval(t, set, []byte(s), patterns.ProtoHTTP, []int{len(s)}, nil); len(got) != 0 {
			t.Errorf("stream %q: unwanted alerts %v", s, got)
		}
	}
}

func TestRegexPendingAcrossSegments(t *testing.T) {
	set, err := parseRule(
		`alert tcp any any -> any 80 (content:"key="; pcre:"/[0-9]{4};/"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	stream := []byte("xxkey=1234;yy")
	want := refAlertMap(set, stream, patterns.ProtoHTTP)
	if len(want) != 1 || want[0] != 2 {
		t.Fatalf("reference sanity: %v", want)
	}
	// Every cut position, including ones splitting the digits the
	// verifier is mid-way through.
	for cut := 1; cut < len(stream); cut++ {
		var c metrics.Counters
		got := runEval(t, set, stream, patterns.ProtoHTTP, []int{cut, len(stream)}, &c)
		diffAlerts(t, want, got, fmt.Sprintf("cut %d", cut))
		if c.VerifierRuns != 1 {
			t.Errorf("cut %d: VerifierRuns = %d, want 1", cut, c.VerifierRuns)
		}
	}
	// Regex that never completes: no alert, still exactly one run.
	var c metrics.Counters
	got := runEval(t, set, []byte("xxkey=12ab"), patterns.ProtoHTTP, []int{7, 10}, &c)
	if len(got) != 0 || c.VerifierRuns != 1 || c.RuleAlerts != 0 {
		t.Errorf("non-matching tail: alerts %v, counters %+v", got, c)
	}
}

func TestVerifierOnlyAtAnchors(t *testing.T) {
	set, err := parseRule(
		`alert tcp any any -> any 80 (content:"needle"; pcre:"/[a-z]+/"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	// The regex matches essentially anywhere, but without a literal
	// anchor the verifier must never start.
	var c metrics.Counters
	stream := bytes.Repeat([]byte("lowercase text without the magic word "), 20)
	got := runEval(t, set, stream, patterns.ProtoHTTP, []int{100, len(stream)}, &c)
	if len(got) != 0 {
		t.Fatalf("unwanted alerts: %v", got)
	}
	if c.VerifierRuns != 0 || c.VerifierStates != 0 {
		t.Fatalf("verifier ran without an anchor: %+v", c)
	}
	// With anchors present: runs are bounded by the anchor count. The
	// first anchor is followed by '!' (rejected), the second by "abc".
	stream = []byte("xx needle! needleabc")
	c = metrics.Counters{}
	got = runEval(t, set, stream, patterns.ProtoHTTP, []int{len(stream)}, &c)
	if len(got) != 1 || got[0] != 11 {
		t.Fatalf("want alert at 11, got %v", got)
	}
	if c.VerifierRuns != 2 {
		t.Fatalf("VerifierRuns = %d, want 2 (one per anchor)", c.VerifierRuns)
	}
	if c.RuleAlerts != 1 {
		t.Fatalf("RuleAlerts = %d", c.RuleAlerts)
	}
}

// ruleGen generates random-but-valid rule lines over a tiny alphabet so
// literal hits, clause overlaps and shared folded literals are common.
type ruleGen struct{ rng *rand.Rand }

func (g ruleGen) content() string {
	words := []string{"ab", "ba", "abc", "AB", "aB", "ca", "cab", "bc"}
	return words[g.rng.Intn(len(words))]
}

func (g ruleGen) rule(sid int) string {
	ports := []string{"80", "53", "any"}
	var b strings.Builder
	fmt.Fprintf(&b, "alert tcp any any -> any %s (msg:\"r%d\"; ", ports[g.rng.Intn(len(ports))], sid)
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "content:%q; ", g.content())
		if g.rng.Intn(3) == 0 {
			b.WriteString("nocase; ")
		}
		if i == 0 {
			if g.rng.Intn(3) == 0 {
				fmt.Fprintf(&b, "offset:%d; ", g.rng.Intn(6))
			}
			if g.rng.Intn(3) == 0 {
				fmt.Fprintf(&b, "depth:%d; ", 1+g.rng.Intn(40))
			}
		} else {
			if g.rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "distance:%d; ", g.rng.Intn(5))
			}
			if g.rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "within:%d; ", 1+g.rng.Intn(20))
			}
		}
	}
	if g.rng.Intn(2) == 0 {
		pool := []string{"/a+b/", "/[ab]{2,4}/i", "/a.b/", "/(a|b)b*a/", "/ab|ba/", "/c[abc]*a/", "/b{3}/"}
		fmt.Fprintf(&b, "pcre:\"%s\"; ", pool[g.rng.Intn(len(pool))])
	}
	fmt.Fprintf(&b, "sid:%d;)", sid)
	return b.String()
}

// TestEvalAgainstReferenceProperty is the package-local property test:
// random rule sets against random streams delivered in random segments
// must produce exactly the reference's alerts. (The ids-level test
// re-runs this through the real engines and reassembler.)
func TestEvalAgainstReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	g := ruleGen{rng: rng}
	protos := []patterns.Protocol{patterns.ProtoGeneric, patterns.ProtoHTTP, patterns.ProtoDNS}
	alphabet := []byte("abcx")
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for it := 0; it < iters; it++ {
		var lines []string
		for s := 0; s < 1+rng.Intn(4); s++ {
			lines = append(lines, g.rule(s+1))
		}
		window := []int64{0, 4, 16, 64}[rng.Intn(4)]
		set, err := ParseRules(strings.NewReader(strings.Join(lines, "\n")), ParseOptions{Window: window})
		if err != nil {
			t.Fatalf("iter %d: parse: %v\n%s", it, err, strings.Join(lines, "\n"))
		}
		stream := make([]byte, rng.Intn(200))
		for i := range stream {
			stream[i] = alphabet[rng.Intn(len(alphabet))]
		}
		// Sprinkle case variation so nocase folding matters.
		for i := range stream {
			if rng.Intn(4) == 0 {
				stream[i] = stream[i] &^ 0x20
			}
		}
		var cuts []int
		pos := 0
		for pos < len(stream) {
			pos += 1 + rng.Intn(40)
			if pos > len(stream) {
				pos = len(stream)
			}
			cuts = append(cuts, pos)
		}
		proto := protos[rng.Intn(len(protos))]
		var c metrics.Counters
		got := runEval(t, set, stream, proto, cuts, &c)
		want := refAlertMap(set, stream, proto)
		diffAlerts(t, want, got, fmt.Sprintf("iter %d proto %v window %d cuts %v stream %q rules\n%s",
			it, proto, window, cuts, stream, strings.Join(lines, "\n")))
		if t.Failed() {
			t.FailNow()
		}
		if uint64(len(got)) != c.RuleAlerts {
			t.Fatalf("iter %d: RuleAlerts counter %d != %d alerts", it, c.RuleAlerts, len(got))
		}
	}
}

func TestRuleDBRoundTrip(t *testing.T) {
	set, err := ParseRules(strings.NewReader(`
alert tcp any any -> any 80 (msg:"a"; content:"GET /"; offset:1; depth:100; content:"Admin"; nocase; distance:2; within:64; pcre:"/tok=[a-f]{2,8}/i"; sid:10;)
alert udp any any -> any 53 (msg:"b"; content:"abc"; sid:11;)
alert tcp any any -> any 80 (msg:"c"; content:"admin"; sid:12;)
`), ParseOptions{Window: 128})
	if err != nil {
		t.Fatal(err)
	}
	var e dbfmt.Encoder
	set.Encode(&e)
	payload := append([]byte(nil), e.Bytes()...)

	got, err := DecodeSet(payload, set.Lits)
	if err != nil {
		t.Fatal(err)
	}
	var e2 dbfmt.Encoder
	got.Encode(&e2)
	if !bytes.Equal(payload, e2.Bytes()) {
		t.Fatal("re-encode is not byte-identical")
	}
	// Behavioral identity on a stream that exercises every rule.
	stream := []byte("xGET / aDmIn tok=abcd abc admin")
	for _, proto := range []patterns.Protocol{patterns.ProtoHTTP, patterns.ProtoDNS} {
		want := refAlertMap(set, stream, proto)
		have := refAlertMap(got, stream, proto)
		diffAlerts(t, want, have, fmt.Sprintf("decoded set, proto %v", proto))
	}
	if got.Window != 128 || len(got.Rules) != 3 || got.Rules[0].Msg != "a" || got.Rules[0].SID != 10 {
		t.Fatalf("decoded set fields: %+v", got)
	}
}

func TestDecodeSetCorrupt(t *testing.T) {
	set, err := parseRule(
		`alert tcp any any -> any 80 (content:"GET"; content:"admin"; nocase; distance:1; within:30; pcre:"/a+/"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	var e dbfmt.Encoder
	set.Encode(&e)
	payload := e.Bytes()
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeSet(payload[:cut], set.Lits); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < len(payload); i++ {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xFF
		// Must not panic; errors (or a differently-valid decode) are fine.
		DecodeSet(mut, set.Lits)
	}
}

func FuzzRuleParse(f *testing.F) {
	f.Add(`alert tcp any any -> any 80 (content:"GET /"; nocase; sid:1;)`)
	f.Add(`alert tcp any any -> any 80 (content:"a"; content:"b"; distance:1; within:9; pcre:"/a[bc]{1,3}d/i"; sid:2;)`)
	f.Add(`alert tcp any any -> any 80 (content:"|0D 0A|esc\"q\\uote|FF|"; offset:3; depth:64; msg:"m\"s;g";)`)
	f.Add("content:\"a\x00b\"")
	f.Fuzz(func(t *testing.T, line string) {
		set, err := ParseRules(strings.NewReader(line), ParseOptions{})
		if err != nil {
			return
		}
		// A parsed set must be internally consistent enough to encode,
		// decode and evaluate without panicking.
		var e dbfmt.Encoder
		set.Encode(&e)
		if _, err := DecodeSet(e.Bytes(), set.Lits); err != nil {
			t.Fatalf("self-encoded set does not decode: %v", err)
		}
		ev := NewEval(set)
		fs := NewFlowState(patterns.ProtoHTTP)
		data := []byte(line)
		ev.FeedBuffer(fs, data, 0, nil, func(int32, int64) {})
		for id := int32(0); id < int32(set.Lits.Len()); id++ {
			p := set.Lits.Pattern(id)
			if n := len(p.Data); n <= len(data) {
				ev.OnHit(fs, id, 0, int64(n), data, 0, nil, func(int32, int64) {})
			}
		}
		ev.FinishFlow(fs, nil, func(int32, int64) {})
	})
}

func FuzzRuleDB(f *testing.F) {
	set, err := parseRule(
		`alert tcp any any -> any 80 (content:"GET"; content:"admin"; nocase; distance:1; within:30; pcre:"/ab?c+[de]{1,4}/i"; sid:7;)`)
	if err != nil {
		f.Fatal(err)
	}
	var e dbfmt.Encoder
	set.Encode(&e)
	f.Add(e.Bytes())
	f.Add([]byte{})
	lits := set.Lits
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Must error or succeed — never panic, never alert differently
		// from its own re-encode.
		got, err := DecodeSet(payload, lits)
		if err != nil {
			return
		}
		var e2 dbfmt.Encoder
		got.Encode(&e2)
		if _, err := DecodeSet(e2.Bytes(), lits); err != nil {
			t.Fatalf("decoded set does not re-decode: %v", err)
		}
	})
}

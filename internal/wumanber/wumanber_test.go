package wumanber

import (
	"math/rand"
	"testing"

	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

func scan(m *Matcher, input []byte) []patterns.Match {
	var out []patterns.Match
	m.Scan(input, nil, func(mm patterns.Match) { out = append(out, mm) })
	return out
}

func checkAgainstNaive(t *testing.T, set *patterns.Set, input []byte) {
	t.Helper()
	got := scan(Build(set), input)
	want := patterns.FindAllNaive(set, input)
	if !patterns.EqualMatches(got, want) {
		t.Fatalf("WM disagrees with naive: got %d matches, want %d", len(got), len(want))
	}
}

func TestBasicMatching(t *testing.T) {
	checkAgainstNaive(t, patterns.FromStrings("announce", "annual", "annually"), []byte("CPM_annual_conference announce"))
}

func TestShortAndLongMix(t *testing.T) {
	checkAgainstNaive(t, patterns.FromStrings("ab", "abcdef", "cde"), []byte("zabcdefz ab cde"))
}

func TestOneBytePatterns(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte{'x'}, false, patterns.ProtoGeneric)
	set.Add([]byte("hello"), false, patterns.ProtoGeneric)
	checkAgainstNaive(t, set, []byte("x hello xx hellox"))
}

func TestOnlyOneBytePatterns(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte{'q'}, false, patterns.ProtoGeneric)
	m := Build(set)
	if m.m != 0 {
		t.Fatalf("window len %d for len-1-only set", m.m)
	}
	checkAgainstNaive(t, set, []byte("qqabcq"))
}

func TestOverlapping(t *testing.T) {
	checkAgainstNaive(t, patterns.FromStrings("aa", "aaa"), []byte("aaaaa"))
}

func TestWindowIsMinLength(t *testing.T) {
	m := Build(patterns.FromStrings("abc", "abcdefgh"))
	if m.m != 3 {
		t.Fatalf("WindowLen = %d, want 3", m.m)
	}
}

func TestNocase(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte("GeT"), true, patterns.ProtoHTTP)
	set.Add([]byte("Host"), false, patterns.ProtoHTTP)
	checkAgainstNaive(t, set, []byte("GET get Host HOST gEt host"))
}

func TestEmptyCases(t *testing.T) {
	if n := len(scan(Build(patterns.NewSet()), []byte("abc"))); n != 0 {
		t.Fatalf("empty set matched %d", n)
	}
	if n := len(scan(Build(patterns.FromStrings("abc")), nil)); n != 0 {
		t.Fatalf("empty input matched %d", n)
	}
	// Input shorter than the window.
	if n := len(scan(Build(patterns.FromStrings("abcdef")), []byte("ab"))); n != 0 {
		t.Fatalf("short input matched %d", n)
	}
}

func TestMatchAtBoundaries(t *testing.T) {
	checkAgainstNaive(t, patterns.FromStrings("start", "end"), []byte("start middle end"))
	checkAgainstNaive(t, patterns.FromStrings("xy"), []byte("xy"))
}

func TestSkippingActuallySkips(t *testing.T) {
	// With one long pattern and inert input, shift probes must be far
	// fewer than input bytes.
	m := Build(patterns.FromStrings("0123456789abcdef"))
	var c metrics.Counters
	input := make([]byte, 1<<16) // zero bytes never match any block
	m.Scan(input, &c, nil)
	if c.Filter1Probes >= uint64(len(input))/8 {
		t.Fatalf("shift probes %d: no skipping happened", c.Filter1Probes)
	}
}

func TestShortPatternsKillSkipping(t *testing.T) {
	// The documented weakness: adding a 2-byte pattern forces m=2 and
	// shift<=1, so probes ~ input size.
	m := Build(patterns.FromStrings("0123456789abcdef", "zz"))
	var c metrics.Counters
	input := make([]byte, 1<<14)
	m.Scan(input, &c, nil)
	if c.Filter1Probes < uint64(len(input))/2 {
		t.Fatalf("shift probes %d: expected skipping to collapse with short patterns", c.Filter1Probes)
	}
}

func TestRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		set := patterns.NewSet()
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			l := 1 + rng.Intn(7)
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			set.Add(p, rng.Intn(5) == 0, patterns.ProtoGeneric)
		}
		input := make([]byte, 250)
		for j := range input {
			input[j] = byte('a' + rng.Intn(3))
		}
		checkAgainstNaive(t, set, input)
	}
}

func TestRealisticTraffic(t *testing.T) {
	set := patterns.GenerateS1(13).Subset(60, 5)
	input := traffic.Synthesize(traffic.DARPA2000, 16<<10, 3, set)
	checkAgainstNaive(t, set, input)
}

func TestCounters(t *testing.T) {
	m := Build(patterns.FromStrings("needle"))
	var c metrics.Counters
	m.Scan([]byte("hay needle hay"), &c, nil)
	if c.BytesScanned != 14 {
		t.Fatalf("BytesScanned = %d", c.BytesScanned)
	}
	if c.Matches != 1 {
		t.Fatalf("Matches = %d", c.Matches)
	}
	if c.Filter1Probes == 0 {
		t.Fatal("no shift probes counted")
	}
}

func TestMemoryFootprint(t *testing.T) {
	m := Build(patterns.GenerateS1(1).Subset(500, 1))
	if m.MemoryFootprint() < 1<<17 {
		t.Fatalf("footprint %d implausibly small (shift table alone is 128 KB)", m.MemoryFootprint())
	}
}

func BenchmarkScanLongPatternsOnly(b *testing.B) {
	set := patterns.GenerateS1(1).Filter(func(p *patterns.Pattern) bool { return p.Len() >= 8 })
	m := Build(set)
	input := traffic.Synthesize(traffic.ISCXDay2, 1<<20, 1, nil)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(input, nil, nil)
	}
}

func BenchmarkScanFullRuleset(b *testing.B) {
	set := patterns.GenerateS1(1).WebSubset()
	m := Build(set)
	input := traffic.Synthesize(traffic.ISCXDay2, 1<<20, 1, nil)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(input, nil, nil)
	}
}

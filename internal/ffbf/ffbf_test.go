package ffbf

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
	got := scan(Build(set, Options{}), input)
	want := patterns.FindAllNaive(set, input)
	if !patterns.EqualMatches(got, want) {
		t.Fatalf("FFBF disagrees with naive: got %d matches, want %d", len(got), len(want))
	}
}

func TestBasicLongPatterns(t *testing.T) {
	checkAgainstNaive(t, patterns.FromStrings("longpattern", "evilpayload!"),
		[]byte("a longpattern and an evilpayload! and longpatter"))
}

func TestAllLengthClasses(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte{0x91}, false, patterns.ProtoGeneric)       // 1 B
	set.Add([]byte("ab"), false, patterns.ProtoGeneric)       // 2 B
	set.Add([]byte("xyz"), false, patterns.ProtoGeneric)      // 3 B
	set.Add([]byte("midl"), false, patterns.ProtoGeneric)     // 4 B (mid class)
	set.Add([]byte("sevenby"), false, patterns.ProtoGeneric)  // 7 B (mid class)
	set.Add([]byte("eightbyt"), false, patterns.ProtoGeneric) // 8 B (shingle class)
	set.Add([]byte("longerpattern"), false, patterns.ProtoGeneric)
	input := append([]byte("ab xyz midl sevenby eightbyt longerpattern midlab"), 0x91, 0x91)
	checkAgainstNaive(t, set, input)
}

func TestMidLengthNotShadowedByLong(t *testing.T) {
	// 4-7 B patterns sharing a 4-byte prefix with >= 8 B patterns must
	// verify exactly once through their own verifier.
	set := patterns.FromStrings("atta", "attackers")
	checkAgainstNaive(t, set, []byte("attack attackers atta"))
}

func TestNocaseMixes(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte("CaseLessLong"), true, patterns.ProtoHTTP)
	set.Add([]byte("ExactCaseLong"), false, patterns.ProtoHTTP)
	set.Add([]byte("GeT"), true, patterns.ProtoHTTP)
	input := []byte("caselesslong CASELESSLONG ExactCaseLong exactcaselong GET get")
	checkAgainstNaive(t, set, input)
}

func TestPureCaseSensitiveUsesRawProbe(t *testing.T) {
	m := Build(patterns.FromStrings("RawProbes!"), Options{})
	if m.foldedProbe {
		t.Fatal("case-sensitive-only set must not fold probes")
	}
	m2 := Build(func() *patterns.Set {
		s := patterns.NewSet()
		s.Add([]byte("FoldedOne!"), true, patterns.ProtoGeneric)
		return s
	}(), Options{})
	if !m2.foldedProbe {
		t.Fatal("nocase long pattern must enable folded probes")
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	set := patterns.FromStrings("abcdefghij", "xy")
	for size := 0; size < 15; size++ {
		input := make([]byte, size)
		for i := range input {
			input[i] = byte('a' + i%5)
		}
		checkAgainstNaive(t, set, input)
	}
}

func TestBloomSizing(t *testing.T) {
	def := Build(patterns.FromStrings("abcdefgh"), Options{})
	if n := def.bloom.SizeBytes(); n != 32<<10 {
		t.Fatalf("default bloom %d bytes, want 32 KB", n)
	}
	small := Build(patterns.FromStrings("abcdefgh"), Options{Log2Bits: 12})
	if n := small.bloom.SizeBytes(); n != 512 {
		t.Fatalf("2^12-bit bloom %d bytes", n)
	}
}

func TestBloomFillRatioReasonable(t *testing.T) {
	m := Build(patterns.GenerateS1(1), Options{})
	// The fill ratio drives the false-positive rate ~ fill^k.
	fill := float64(m.bloom.PopCount()) / float64(m.bloom.Bits())
	// ~2000 long patterns x 3 bits into 2^18 bits => ~2.3% fill.
	if fill <= 0 || fill > 0.1 {
		t.Fatalf("bloom fill %.4f out of expected range", fill)
	}
}

func TestRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		set := patterns.NewSet()
		for i := 0; i < 1+rng.Intn(12); i++ {
			l := 1 + rng.Intn(12)
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			set.Add(p, rng.Intn(5) == 0, patterns.ProtoGeneric)
		}
		input := make([]byte, 300)
		for j := range input {
			input[j] = byte('a' + rng.Intn(3))
		}
		checkAgainstNaive(t, set, input)
	}
}

func TestRealisticTraffic(t *testing.T) {
	set := patterns.GenerateS1(17).Subset(80, 4)
	input := traffic.Synthesize(traffic.ISCXDay2, 32<<10, 6, set)
	checkAgainstNaive(t, set, input)
}

func TestFeedForwardSoundness(t *testing.T) {
	// Every long pattern that actually occurs must be in the possible
	// set (no false negatives in the reduction).
	set := patterns.FromStrings("occursinthetext", "neverpresent01", "alsooccurs99")
	input := []byte("xx occursinthetext yy alsooccurs99 zz")
	m := Build(set, Options{})
	ff := m.ScanFeedForward(input, nil, nil)
	possible := map[int32]bool{}
	for _, id := range ff.PossiblePatterns() {
		possible[id] = true
	}
	for _, want := range patterns.FindAllNaive(set, input) {
		if !possible[want.PatternID] {
			t.Fatalf("occurring pattern %d missing from possible set", want.PatternID)
		}
	}
}

func TestFeedForwardReduces(t *testing.T) {
	// On traffic that contains few patterns, the possible set must be a
	// small fraction of the full set.
	set := patterns.GenerateS1(23)
	input := traffic.Random(128<<10, 9)
	m := Build(set, Options{})
	ff := m.ScanFeedForward(input, nil, nil)
	if r := ff.ReductionRatio(); r > 0.5 {
		t.Fatalf("feed-forward kept %.1f%% of patterns on random input", r*100)
	}
}

func TestFeedForwardEmptyLongSet(t *testing.T) {
	m := Build(patterns.FromStrings("ab"), Options{})
	ff := m.ScanFeedForward([]byte("abab"), nil, nil)
	if ff.ReductionRatio() != 0 || len(ff.PossiblePatterns()) != 0 {
		t.Fatal("no long patterns must yield empty reduction")
	}
}

func TestCounters(t *testing.T) {
	set := patterns.FromStrings("bloomhit8", "ab")
	m := Build(set, Options{})
	var c metrics.Counters
	m.Scan([]byte("xx bloomhit8 ab xx"), &c, nil)
	if c.Filter2Probes == 0 {
		t.Fatal("bloom probes not counted")
	}
	if c.Matches != 2 {
		t.Fatalf("Matches = %d, want 2", c.Matches)
	}
	if c.LongCandidates == 0 || c.ShortCandidates == 0 {
		t.Fatalf("candidates not counted: %+v", c)
	}
}

func TestFilteringSelectivityOnRandom(t *testing.T) {
	set := patterns.GenerateS1(1).WebSubset()
	m := Build(set, Options{})
	var c metrics.Counters
	m.Scan(traffic.Random(128<<10, 5), &c, nil)
	longRate := float64(c.LongCandidates) / float64(c.BytesScanned)
	if longRate > 0.01 {
		t.Fatalf("bloom passes %.4f of random positions; should be rare", longRate)
	}
}

func BenchmarkFFBF2KRealistic(b *testing.B) {
	set := patterns.GenerateS1(1).WebSubset()
	m := Build(set, Options{})
	input := traffic.Synthesize(traffic.ISCXDay2, 1<<20, 1, set)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(input, nil, nil)
	}
}

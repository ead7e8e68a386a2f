package dfc

import (
	"bytes"
	"math/rand"
	"testing"

	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

func scanScalar(m *Matcher, input []byte) []patterns.Match {
	var out []patterns.Match
	m.Scan(input, nil, func(mm patterns.Match) { out = append(out, mm) })
	return out
}

func scanVector(m *VectorMatcher, input []byte) []patterns.Match {
	var out []patterns.Match
	m.Scan(input, nil, func(mm patterns.Match) { out = append(out, mm) })
	return out
}

func checkBoth(t *testing.T, set *patterns.Set, input []byte) {
	t.Helper()
	want := patterns.FindAllNaive(set, input)
	if got := scanScalar(Build(set), input); !patterns.EqualMatches(got, want) {
		t.Fatalf("DFC disagrees with naive: got %d want %d matches", len(got), len(want))
	}
	for _, w := range []int{4, 8, 16} {
		if got := scanVector(BuildVector(set, w), input); !patterns.EqualMatches(got, want) {
			t.Fatalf("Vector-DFC (W=%d) disagrees with naive: got %d want %d matches", w, len(got), len(want))
		}
	}
}

func TestBasic(t *testing.T) {
	checkBoth(t, patterns.FromStrings("GET", "HTTP/1.1", "attack"), []byte("GET /attack HTTP/1.1"))
}

func TestShortFamilies(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte{0x90}, false, patterns.ProtoGeneric) // 1 byte
	set.Add([]byte("ab"), false, patterns.ProtoGeneric) // 2 bytes
	set.Add([]byte("xyz"), false, patterns.ProtoGeneric)
	input := append([]byte("ab xyz "), 0x90, 'a', 'b', 0x90)
	checkBoth(t, set, input)
}

func TestLongSharedPrefixes(t *testing.T) {
	checkBoth(t, patterns.FromStrings("attack", "attribute", "attain"),
		[]byte("the attribute of an attack is attainment attattatt"))
}

func TestOneBytePatternAtLastPosition(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte{0xAB}, false, patterns.ProtoGeneric)
	input := append([]byte("xxxx"), 0xAB) // match exactly at the final byte
	checkBoth(t, set, input)
}

func TestTwoBytePatternAtLastWindow(t *testing.T) {
	checkBoth(t, patterns.FromStrings("zz"), []byte("aaazz"))
}

func TestNocase(t *testing.T) {
	set := patterns.NewSet()
	set.Add([]byte("GeT"), true, patterns.ProtoHTTP)
	set.Add([]byte("Cmd.EXE"), true, patterns.ProtoHTTP)
	set.Add([]byte("exact"), false, patterns.ProtoHTTP)
	checkBoth(t, set, []byte("GET get CMD.EXE cmd.exe EXACT exact"))
}

func TestEmptyCases(t *testing.T) {
	if n := len(scanScalar(Build(patterns.NewSet()), []byte("abc"))); n != 0 {
		t.Fatalf("empty set matched %d", n)
	}
	if n := len(scanScalar(Build(patterns.FromStrings("ab")), nil)); n != 0 {
		t.Fatalf("empty input matched %d", n)
	}
	if n := len(scanVector(BuildVector(patterns.FromStrings("ab"), 8), []byte("a"))); n != 0 {
		t.Fatalf("1-byte input matched %d", n)
	}
}

func TestVectorTailShorterThanRegister(t *testing.T) {
	// Inputs shorter than W+1 exercise the pure scalar-tail path.
	set := patterns.FromStrings("ab", "bc")
	for size := 0; size < 20; size++ {
		input := make([]byte, size)
		for i := range input {
			input[i] = byte('a' + i%3)
		}
		want := patterns.FindAllNaive(set, input)
		got := scanVector(BuildVector(set, 16), input)
		if !patterns.EqualMatches(got, want) {
			t.Fatalf("size %d: vector tail wrong", size)
		}
	}
}

func TestRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		set := patterns.NewSet()
		n := 1 + rng.Intn(15)
		for i := 0; i < n; i++ {
			l := 1 + rng.Intn(8)
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
		checkBoth(t, set, input)
	}
}

func TestRealisticTraffic(t *testing.T) {
	set := patterns.GenerateS1(19).Subset(80, 2)
	input := traffic.Synthesize(traffic.ISCXDay2, 32<<10, 4, set)
	checkBoth(t, set, input)
}

func TestScalarVectorSameMatches(t *testing.T) {
	set := patterns.GenerateS1(29).Subset(200, 9)
	input := traffic.Synthesize(traffic.ISCXDay6, 64<<10, 8, set)
	a := scanScalar(Build(set), input)
	b := scanVector(BuildVector(set, 8), input)
	if !patterns.EqualMatches(a, b) {
		t.Fatalf("scalar %d vs vector %d matches", len(a), len(b))
	}
}

func TestFilterProbesOncePerPosition(t *testing.T) {
	// DFC probes the initial filter once per 2-byte window, whether
	// the input can match nowhere or everywhere.
	m := Build(patterns.FromStrings("qqqq"))
	var c metrics.Counters
	m.Scan(make([]byte, 1000), &c, nil)
	if c.Filter1Probes != 999 {
		t.Fatalf("clean input: %d probes, want 999 windows", c.Filter1Probes)
	}
	c.Reset()
	m.Scan(bytes.Repeat([]byte{'q'}, 500), &c, nil)
	if c.Filter1Probes != 499 {
		t.Fatalf("dense input: %d probes, want 499 windows", c.Filter1Probes)
	}
}

// TestNeverSkips: DFC is the paper's unaccelerated baseline, so on
// traffic that a skip loop would clear in runs it still probes every
// window, and finds what the naive reference finds, counted or not.
func TestNeverSkips(t *testing.T) {
	set := patterns.GenerateS1(3).Subset(200, 3)
	m := Build(set)
	for name, input := range map[string][]byte{
		"iscx-64KiB": traffic.Synthesize(traffic.ISCXDay2, 64<<10, 5, set),
		"zero-4KiB":  make([]byte, 4<<10),
	} {
		want := patterns.FindAllNaive(set, input)
		if got := scanScalar(m, input); !patterns.EqualMatches(got, want) {
			t.Errorf("%s, nil counters: %d matches, naive %d", name, len(got), len(want))
		}
		var c metrics.Counters
		var got []patterns.Match
		m.Scan(input, &c, func(mm patterns.Match) { got = append(got, mm) })
		if !patterns.EqualMatches(got, want) {
			t.Errorf("%s, counted: %d matches, naive %d", name, len(got), len(want))
		}
		if c.SkippedBytes != 0 || c.Filter1Probes != uint64(len(input)-1) {
			t.Errorf("%s: skipped %d, probes %d; want 0 and %d", name,
				c.SkippedBytes, c.Filter1Probes, len(input)-1)
		}
	}
}

func TestVectorCountsGathers(t *testing.T) {
	m := BuildVector(patterns.FromStrings("qqqq"), 8)
	var c metrics.Counters
	input := make([]byte, 1024)
	m.Scan(input, &c, nil)
	if c.Gathers == 0 || c.VectorIters == 0 {
		t.Fatalf("vector counters empty: %+v", c)
	}
	// One gather per iteration of W positions.
	if c.Gathers != c.VectorIters {
		t.Fatalf("gathers %d != iters %d", c.Gathers, c.VectorIters)
	}
}

func TestFilteringRejectsRandomInput(t *testing.T) {
	// The paper: on random data the filters reject ~95% of the input.
	set := patterns.GenerateS1(1).WebSubset()
	m := Build(set)
	var c metrics.Counters
	input := traffic.Random(256<<10, 3)
	m.Scan(input, &c, nil)
	rejectRate := 1 - float64(c.HTProbes)/float64(c.BytesScanned)
	if rejectRate < 0.80 {
		t.Fatalf("initial filter rejects only %.1f%% of random input", rejectRate*100)
	}
}

func TestFilterSizeBytes(t *testing.T) {
	m := Build(patterns.FromStrings("abcd"))
	if n := m.fs.SizeBytes(); n != 24576 {
		t.Fatalf("filter stage %d bytes, want 24 KB (3 x 8 KB)", n)
	}
	if m.Verifier() == nil {
		t.Fatal("verifier accessor nil")
	}
}

func TestWidthAccessor(t *testing.T) {
	if BuildVector(patterns.FromStrings("ab"), 0).Width() != 8 {
		t.Fatal("default width must be 8")
	}
	if BuildVector(patterns.FromStrings("ab"), 16).Width() != 16 {
		t.Fatal("width override ignored")
	}
}

func BenchmarkDFC2KRealistic(b *testing.B) {
	set := patterns.GenerateS1(1).WebSubset()
	m := Build(set)
	input := traffic.Synthesize(traffic.ISCXDay2, 1<<20, 1, set)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(input, nil, nil)
	}
}

func BenchmarkVectorDFC2KRealistic(b *testing.B) {
	set := patterns.GenerateS1(1).WebSubset()
	m := BuildVector(set, 8)
	input := traffic.Synthesize(traffic.ISCXDay2, 1<<20, 1, set)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(input, nil, nil)
	}
}

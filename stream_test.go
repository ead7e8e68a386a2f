package vpatch

import (
	"math/rand"
	"testing"

	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

func collectStream(t *testing.T, m *Session, chunks [][]byte) []Match {
	t.Helper()
	var out []Match
	s, err := m.NewStreamScanner(func(sm StreamMatch) {
		out = append(out, Match{PatternID: sm.PatternID, Pos: int32(sm.Pos)})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		n, err := s.Write(ch)
		if err != nil || n != len(ch) {
			t.Fatalf("Write: n=%d err=%v", n, err)
		}
	}
	return out
}

func TestStreamConstructorErrors(t *testing.T) {
	eng, err := Compile(PatternSetFromStrings("ab"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.NewStreamScanner(nil); err == nil {
		t.Fatal("Engine constructor accepted nil emit")
	}
	if _, err := eng.NewSession().NewStreamScanner(nil); err == nil {
		t.Fatal("Session constructor accepted nil emit")
	}
}

// TestStreamEngineAndSessionConstructors: the Engine- and
// Session-backed constructors must report what a whole-input scan does.
func TestStreamEngineAndSessionConstructors(t *testing.T) {
	set := PatternSetFromStrings("chunk-spanning-pattern", "GET")
	input := []byte("x GET chunk-spanning-pattern and GETchunk-spanning-pattern!")
	eng, err := Compile(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.FindAll(input)
	if len(want) == 0 {
		t.Fatal("test needs matches")
	}

	for name, mk := range map[string]func(StreamEmitFunc) (*StreamScanner, error){
		"engine":  eng.NewStreamScanner,
		"session": eng.NewSession().NewStreamScanner,
	} {
		var got []Match
		s, err := mk(func(m StreamMatch) { got = append(got, Match{PatternID: m.PatternID, Pos: int32(m.Pos)}) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for cut := 0; cut < len(input); cut += 7 {
			end := cut + 7
			if end > len(input) {
				end = len(input)
			}
			if _, err := s.Write(input[cut:end]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		patterns.SortMatches(got)
		if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
			t.Fatalf("%s constructor: %d matches, want %d", name, len(got), len(want))
		}
	}
}

func TestStreamMatchesWholeInputScan(t *testing.T) {
	set := PatternSetFromStrings("chunk-spanning-pattern", "GET", "ab")
	input := []byte("ab GET chunk-spanning-pattern GET abchunk-spanning-patternab")
	m, _ := newSession(set, Options{})
	want, _ := FindAll(set, input, Options{})

	// Split so the long pattern straddles every boundary.
	for _, cut := range []int{1, 5, 10, 15, 25, 40} {
		chunks := [][]byte{input[:cut], input[cut:]}
		got := collectStream(t, m, chunks)
		if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
			t.Fatalf("cut %d: stream %d matches, whole %d", cut, len(got), len(want))
		}
	}
}

func TestStreamByteAtATime(t *testing.T) {
	set := PatternSetFromStrings("abc", "cab")
	input := []byte("abcabcababcab")
	m, _ := newSession(set, Options{})
	want, _ := FindAll(set, input, Options{})
	var chunks [][]byte
	for i := range input {
		chunks = append(chunks, input[i:i+1])
	}
	got := collectStream(t, m, chunks)
	if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
		t.Fatalf("byte-at-a-time: %d vs %d", len(got), len(want))
	}
}

func TestStreamNoDuplicatesWithinCarry(t *testing.T) {
	// A match entirely inside the carry region must not be re-reported
	// when the next chunk arrives.
	set := PatternSetFromStrings("abcdefgh", "cd")
	m, _ := newSession(set, Options{})
	input := []byte("xxcdxxxxyyyy")
	chunks := [][]byte{input[:6], input[6:9], input[9:]}
	got := collectStream(t, m, chunks)
	want, _ := FindAll(set, input, Options{})
	if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
		t.Fatalf("duplicate or missing matches: got %v want %v", got, want)
	}
}

func TestStreamRandomSplitsEqualWholeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	set := patterns.GenerateS1(3).Subset(60, 2)
	input := traffic.Synthesize(traffic.ISCXDay6, 16<<10, 4, set)
	m, _ := newSession(set, Options{})
	want, _ := FindAll(set, input, Options{})
	for trial := 0; trial < 5; trial++ {
		var chunks [][]byte
		for pos := 0; pos < len(input); {
			n := 1 + rng.Intn(4096)
			if pos+n > len(input) {
				n = len(input) - pos
			}
			chunks = append(chunks, input[pos:pos+n])
			pos += n
		}
		got := collectStream(t, m, chunks)
		if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
			t.Fatalf("trial %d: stream diverges from whole-input scan", trial)
		}
	}
}

func TestStreamAbsoluteOffsets(t *testing.T) {
	set := PatternSetFromStrings("zz")
	m, _ := newSession(set, Options{})
	var got []StreamMatch
	s, _ := m.NewStreamScanner(func(sm StreamMatch) { got = append(got, sm) })
	s.Write([]byte("aaaa"))   // offsets 0-3
	s.Write([]byte("zz"))     // offsets 4-5
	s.Write([]byte("aazzaa")) // zz at 8
	if len(got) != 2 || got[0].Pos != 4 || got[1].Pos != 8 {
		t.Fatalf("absolute offsets wrong: %v", got)
	}
	if s.Consumed() != 12 {
		t.Fatalf("Consumed = %d", s.Consumed())
	}
}

// TestStream64BitOffsetsPast2GiB: matches beyond 2 GiB of consumed
// stream must report exact 64-bit offsets. The scanner's consumed
// counter is pre-set to just under the int32 boundary so the test does
// not have to stream 2 GiB of data.
func TestStream64BitOffsetsPast2GiB(t *testing.T) {
	set := PatternSetFromStrings("needle")
	eng, err := Compile(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []StreamMatch
	s, err := eng.NewStreamScanner(func(m StreamMatch) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	const base = int64(1)<<31 - 1 // one byte shy of the int32 boundary
	s.consumed = base
	if _, err := s.Write([]byte("xxneedleyy")); err != nil {
		t.Fatal(err)
	}
	want := base + 2
	if len(got) != 1 || got[0].Pos != want {
		t.Fatalf("matches %v, want one at %d", got, want)
	}
	if int64(int32(got[0].Pos)) == got[0].Pos {
		t.Fatalf("offset %d does not exercise the 32-bit boundary", got[0].Pos)
	}
	// A second write keeps counting past the boundary.
	if _, err := s.Write([]byte("needle")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Pos != base+10 {
		t.Fatalf("second match %v, want offset %d", got, base+10)
	}
}

func TestStreamEmptyWrites(t *testing.T) {
	m, _ := newSession(PatternSetFromStrings("ab"), Options{})
	s, _ := m.NewStreamScanner(func(StreamMatch) {})
	if n, err := s.Write(nil); n != 0 || err != nil {
		t.Fatal("empty write must be a no-op")
	}
}

func TestStreamReset(t *testing.T) {
	set := PatternSetFromStrings("ab")
	m, _ := newSession(set, Options{})
	var got []StreamMatch
	s, _ := m.NewStreamScanner(func(sm StreamMatch) { got = append(got, sm) })
	s.Write([]byte("a"))
	s.Reset()
	s.Write([]byte("b")) // must NOT combine with the pre-reset "a"
	if len(got) != 0 {
		t.Fatalf("match across Reset: %v", got)
	}
	if s.Consumed() != 1 {
		t.Fatalf("Consumed after reset = %d", s.Consumed())
	}
	s.Write([]byte("ab"))
	if len(got) != 1 || got[0].Pos != 1 {
		t.Fatalf("post-reset offsets wrong: %v", got)
	}
}

func TestStreamCallerMayReuseChunkBuffer(t *testing.T) {
	set := PatternSetFromStrings("abcd")
	m, _ := newSession(set, Options{})
	var got []StreamMatch
	s, _ := m.NewStreamScanner(func(sm StreamMatch) { got = append(got, sm) })
	buf := make([]byte, 2)
	copy(buf, "ab")
	s.Write(buf)
	copy(buf, "cd") // caller reuses the buffer; carry must not alias it
	s.Write(buf)
	if len(got) != 1 || got[0].Pos != 0 {
		t.Fatalf("buffer aliasing broke carry: %v", got)
	}
}

func TestStreamAllAlgorithms(t *testing.T) {
	set := PatternSetFromStrings("span-this", "GE")
	input := []byte("x GE span-this GE span-this")
	want, _ := FindAll(set, input, Options{})
	for _, alg := range allAlgorithms {
		m, err := newSession(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		got := collectStream(t, m, [][]byte{input[:7], input[7:16], input[16:]})
		if !patterns.EqualMatches(got, append([]Match(nil), want...)) {
			t.Fatalf("%v: stream scan diverges", alg)
		}
	}
}

package redfa

import (
	"bytes"
	"math/rand"
	"regexp"
	"testing"

	"vpatch/internal/dbfmt"
)

// match is the one-shot anchored match of data's prefix; bailed follows
// the fail-open contract (the caller reports).
func match(m *Machine, data []byte) (matched, bailed bool) {
	st, acc, bail := m.Start()
	if bail || acc {
		return acc && !bail, bail
	}
	_, _, accepted, bail := m.Feed(st, data)
	return accepted && !bail, bail
}

// matchOnce runs a fresh machine over data.
func matchOnce(t *testing.T, expr, flags string, data []byte) bool {
	t.Helper()
	p, err := Compile(expr, flags)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	m := NewMachine(p, 0)
	ok, bailed := match(m, data)
	if bailed {
		t.Fatalf("Match(%q, %q) bailed", expr, data)
	}
	return ok
}

func TestBasicMatches(t *testing.T) {
	cases := []struct {
		expr, flags string
		input       string
		want        bool
	}{
		{"abc", "", "abcdef", true},
		{"abc", "", "abd", false},
		{"abc", "", "xabc", false}, // anchored
		{"a|b", "", "b", true},
		{"a|b", "", "c", false},
		{"a*", "", "", true},
		{"a+", "", "", false},
		{"a+", "", "aaab", true},
		{"a?b", "", "b", true},
		{"a?b", "", "ab", true},
		{"(ab)+c", "", "ababc", true},
		{"(ab)+c", "", "abac", false},
		{"(?:ab)+c", "", "abc", true},
		{"a{3}", "", "aaa", true},
		{"a{3}", "", "aa", false},
		{"a{2,4}b", "", "aab", true},
		{"a{2,4}b", "", "aaaaab", false},
		{"a{2,}b", "", "aaaaaab", true},
		{"a{0}b", "", "b", true},
		{"a{0}b", "", "ab", false},
		{"[a-c]+d", "", "abccbad", true},
		{"[^a-c]d", "", "xd", true},
		{"[^a-c]d", "", "bd", false},
		{`\d{4}`, "", "1234", true},
		{`\d{4}`, "", "123a", false},
		{`\w+=\w+`, "", "key=value", true},
		{`\s`, "", " ", true},
		{`\S`, "", " ", false},
		{`\x41\x42`, "", "AB", true},
		{`a\.b`, "", "a.b", true},
		{`a\.b`, "", "axb", false},
		{"a.b", "", "a\nb", true}, // dot matches any byte
		{"^abc", "", "abc", true},
		{"GET /[a-z]+", "", "GET /admin HTTP/1.1", true},
		{"abc", "i", "AbC", true},
		{"[a-z]+", "i", "XYZ", true},
		{"abc", "s", "abc", true},
		{"abc", "R", "abc", true},
	}
	for _, c := range cases {
		if got := matchOnce(t, c.expr, c.flags, []byte(c.input)); got != c.want {
			t.Errorf("match(%q/%s, %q) = %v, want %v", c.expr, c.flags, c.input, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, expr := range []string{
		"(", ")", "a)", "[", "[a-", "a{", "a{2", "a{4,2}", "a{999}",
		"*", "+a", "?", "a$", "a^b", `\`, `\q`, `\x4`, `\xzz`,
		"(?P<x>a)", "(?=a)",
	} {
		if _, err := Compile(expr, ""); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", expr)
		}
	}
	if _, err := Compile("abc", "x"); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestAgainstGoRegexp cross-checks anchored prefix matching against the
// standard library on ASCII inputs (where byte and rune semantics
// coincide).
func TestAgainstGoRegexp(t *testing.T) {
	exprs := []string{
		"abc", "a+b*c?", "(ab|cd)+", "[a-f0-9]{2,6}", `\d+[a-z]{1,3}`,
		"x(yz|zy)*x", "a(b|c)(d|e)f", "[^x]{3}x", `\w+`, "(a|ab)(c|bc)",
	}
	rng := rand.New(rand.NewSource(42))
	alpha := []byte("abcdefxyz0123456789 ")
	for _, expr := range exprs {
		p, err := Compile(expr, "")
		if err != nil {
			t.Fatalf("Compile(%q): %v", expr, err)
		}
		ref := regexp.MustCompile("^(?:" + expr + ")")
		m := NewMachine(p, 0)
		for i := 0; i < 300; i++ {
			n := rng.Intn(12)
			in := make([]byte, n)
			for j := range in {
				in[j] = alpha[rng.Intn(len(alpha))]
			}
			got, bailed := match(m, in)
			if bailed {
				t.Fatalf("%q bailed on %q", expr, in)
			}
			if want := ref.Match(in); got != want {
				t.Errorf("%q on %q: got %v, want %v", expr, in, got, want)
			}
		}
	}
}

// TestIncrementalFeed verifies a verification split at every boundary
// agrees with the one-shot result.
func TestIncrementalFeed(t *testing.T) {
	p, err := Compile(`user=[a-z]{3,8}&pass=\w+`, "")
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{
		[]byte("user=alice&pass=s3cret___tail"),
		[]byte("user=alice&nope"),
		[]byte("user=a&pass=x"),
	}
	for _, in := range inputs {
		whole := NewMachine(p, 0)
		wantOK, _ := match(whole, in)
		for cut := 0; cut <= len(in); cut++ {
			m := NewMachine(p, 0)
			st, acc, bailed := m.Start()
			if bailed {
				t.Fatal("start bailed")
			}
			got := acc
			if !got {
				next, _, accepted, bail := m.Feed(st, in[:cut])
				if bail {
					t.Fatal("bailed")
				}
				got = accepted
				if !accepted && next != Dead {
					_, _, accepted2, bail2 := m.Feed(next, in[cut:])
					if bail2 {
						t.Fatal("bailed")
					}
					got = accepted2
				}
			}
			if got != wantOK {
				t.Errorf("split at %d of %q: got %v, want %v", cut, in, got, wantOK)
			}
		}
	}
}

// TestBail: a tiny state cap must bail (fail-open), not loop or panic.
func TestBail(t *testing.T) {
	p, err := Compile("(a|b|c|d)(e|f|g|h)(i|j|k|l)m", "")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 2)
	_, bailed := match(m, []byte("aeim"))
	if !bailed {
		t.Fatal("expected bail with 2-state cap")
	}
}

func TestStatesBuiltCounts(t *testing.T) {
	p, err := Compile("[a-z]+[0-9]+", "")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, 0)
	match(m, []byte("abc123"))
	first := m.StatesBuilt
	if first == 0 {
		t.Fatal("no states built on first run")
	}
	match(m, []byte("xyz789"))
	if m.StatesBuilt != first {
		t.Errorf("warm run built %d new states", m.StatesBuilt-first)
	}
}

func TestMatchesEmpty(t *testing.T) {
	for expr, want := range map[string]bool{
		"a*": true, "a+": false, "": true, "a?": true, "abc": false,
	} {
		p, err := Compile(expr, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, got, _ := NewMachine(p, 4).Start(); got != want {
			t.Errorf("MatchesEmpty(%q) = %v, want %v", expr, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	exprs := []string{"abc", "(ab|cd)+[x-z]{2,5}", `\d+\.\d+`, "a.*b"}
	for _, expr := range exprs {
		p, err := Compile(expr, "i")
		if err != nil {
			t.Fatal(err)
		}
		var e dbfmt.Encoder
		p.Encode(&e)
		blob := append([]byte(nil), e.Bytes()...)

		d := dbfmt.NewDecoder(blob)
		q, err := DecodeProg(d)
		if err != nil {
			t.Fatalf("decode %q: %v", expr, err)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		var e2 dbfmt.Encoder
		q.Encode(&e2)
		if !bytes.Equal(blob, e2.Bytes()) {
			t.Errorf("%q: re-encode differs", expr)
		}
		// Behavioral identity on a few inputs.
		for _, in := range []string{"abcd", "ABxy", "12.5", "a##b", ""} {
			m1, m2 := NewMachine(p, 0), NewMachine(q, 0)
			r1, _ := match(m1, []byte(in))
			r2, _ := match(m2, []byte(in))
			if r1 != r2 {
				t.Errorf("%q on %q: original %v, decoded %v", expr, in, r1, r2)
			}
		}
	}
}

// TestDecodeCorrupt: flipped/truncated program bytes must error, never
// panic or index out of range.
func TestDecodeCorrupt(t *testing.T) {
	p, err := Compile("(ab|cd)+x", "")
	if err != nil {
		t.Fatal(err)
	}
	var e dbfmt.Encoder
	p.Encode(&e)
	blob := e.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		d := dbfmt.NewDecoder(blob[:cut])
		if q, err := DecodeProg(d); err == nil && d.Finish() == nil {
			// A truncation that still decodes cleanly must still be runnable.
			match(NewMachine(q, 0), []byte("abx"))
		}
	}
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x41
		d := dbfmt.NewDecoder(mut)
		if q, err := DecodeProg(d); err == nil && d.Finish() == nil {
			match(NewMachine(q, 0), []byte("abx"))
		}
	}
}

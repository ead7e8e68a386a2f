package traffic

import (
	"bytes"
	"testing"

	"vpatch/internal/patterns"
)

func TestSynthesizeSizeAndDeterminism(t *testing.T) {
	for _, p := range Profiles {
		a := Synthesize(p, 64<<10, 1, nil)
		b := Synthesize(p, 64<<10, 1, nil)
		if len(a) != 64<<10 {
			t.Fatalf("%s: size %d", p.Name, len(a))
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: same seed produced different traffic", p.Name)
		}
		c := Synthesize(p, 64<<10, 2, nil)
		if bytes.Equal(a, c) {
			t.Fatalf("%s: different seeds produced identical traffic", p.Name)
		}
	}
}

func TestSynthesizeLooksLikeHTTP(t *testing.T) {
	data := Synthesize(ISCXDay2, 256<<10, 3, nil)
	for _, tok := range []string{"GET /", "HTTP/1.1", "Host: ", "User-Agent: "} {
		if !bytes.Contains(data, []byte(tok)) {
			t.Errorf("traffic lacks %q", tok)
		}
	}
	// The short patterns the paper highlights must occur frequently.
	gets := bytes.Count(data, []byte("GET"))
	if gets < 50 {
		t.Fatalf("only %d GET occurrences in 256 KB; realistic-traffic effect missing", gets)
	}
}

func TestProfilesDiffer(t *testing.T) {
	a := Synthesize(ISCXDay2, 64<<10, 1, nil)
	b := Synthesize(ISCXDay6, 64<<10, 1, nil)
	c := Synthesize(DARPA2000, 64<<10, 1, nil)
	if bytes.Equal(a, b) || bytes.Equal(a, c) || bytes.Equal(b, c) {
		t.Fatal("profiles produce identical traffic")
	}
}

func TestDARPAContainsTelnet(t *testing.T) {
	data := Synthesize(DARPA2000, 256<<10, 1, nil)
	if !bytes.Contains(data, []byte("login:")) && !bytes.Contains(data, []byte("ftp")) {
		t.Fatal("DARPA profile lacks pre-web plain-text sessions")
	}
}

func TestAttackInjectionRaisesMatches(t *testing.T) {
	set := patterns.NewSet()
	// A pattern that never occurs naturally in the synthesizer output.
	set.Add([]byte{0x01, 0x02, 0x03, 0xFE, 0xFD, 0xFC, 0x01, 0x02}, false, patterns.ProtoHTTP)
	quiet := Synthesize(ISCXDay2, 512<<10, 9, nil)
	noisy := Synthesize(ISCXDay2, 512<<10, 9, set)
	pat := set.Pattern(0).Data
	if bytes.Count(quiet, pat) != 0 {
		t.Fatal("sentinel pattern occurs without injection")
	}
	if bytes.Count(noisy, pat) == 0 {
		t.Fatal("AttackFrac sessions never embedded the pattern")
	}
}

func TestRandomProperties(t *testing.T) {
	a := Random(128<<10, 5)
	b := Random(128<<10, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("Random not deterministic")
	}
	if bytes.Equal(a, Random(128<<10, 6)) {
		t.Fatal("Random ignores seed")
	}
	// Rough uniformity: every byte value should appear.
	var hist [256]int
	for _, c := range a {
		hist[c]++
	}
	for v, n := range hist {
		if n == 0 {
			t.Fatalf("byte %#x never appears in 128 KB of random data", v)
		}
	}
}

func TestInjectMatchesDensity(t *testing.T) {
	set := patterns.FromStrings("INJECTED-PATTERN-ONE", "INJECTED-TWO")
	for _, frac := range []float64{0.05, 0.25, 0.60} {
		data := Random(256<<10, 7)
		injected := InjectMatches(data, set, frac, 11)
		got := float64(injected) / float64(len(data))
		if got < frac || got > frac+0.05 {
			t.Errorf("frac %.2f: injected %.3f of bytes", frac, got)
		}
		n := bytes.Count(data, []byte("INJECTED-PATTERN-ONE")) + bytes.Count(data, []byte("INJECTED-TWO"))
		if n == 0 {
			t.Errorf("frac %.2f: no occurrences survive (overwrites destroyed all?)", frac)
		}
	}
}

func TestInjectMatchesEdgeCases(t *testing.T) {
	set := patterns.FromStrings("abc")
	if InjectMatches(nil, set, 0.5, 1) != 0 {
		t.Fatal("nil data must inject 0")
	}
	if InjectMatches(make([]byte, 100), nil, 0.5, 1) != 0 {
		t.Fatal("nil set must inject 0")
	}
	if InjectMatches(make([]byte, 100), set, 0, 1) != 0 {
		t.Fatal("zero frac must inject 0")
	}
	// Pattern longer than data: must not loop forever or panic.
	long := patterns.FromStrings("this pattern is much longer than the data")
	if InjectMatches(make([]byte, 4), long, 0.0, 1) != 0 {
		t.Fatal("oversized pattern with zero frac")
	}
}

func TestInjectMatchesDeterministic(t *testing.T) {
	set := patterns.FromStrings("xyzzy")
	a := Random(32<<10, 1)
	b := Random(32<<10, 1)
	InjectMatches(a, set, 0.1, 3)
	InjectMatches(b, set, 0.1, 3)
	if !bytes.Equal(a, b) {
		t.Fatal("InjectMatches not deterministic")
	}
}

func TestSynthesizeTinySizes(t *testing.T) {
	for _, size := range []int{0, 1, 7, 100} {
		data := Synthesize(ISCXDay2, size, 1, nil)
		if len(data) != size {
			t.Fatalf("size %d: got %d", size, len(data))
		}
	}
}

func TestPacketsDrawsFromMix(t *testing.T) {
	set := patterns.FromStrings("attack-token")
	pkts := Packets(ISCXDay2, SimpleIMIX, 1200, 7, set)
	if len(pkts) != 1200 {
		t.Fatalf("got %d packets, want 1200", len(pkts))
	}
	counts := map[int]int{}
	for _, p := range pkts {
		counts[len(p)]++
	}
	for size := range counts {
		ok := false
		for _, e := range SimpleIMIX {
			if e.Size == size {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("packet size %d not in mix", size)
		}
	}
	// 7:4:1 weights: small packets must dominate, MTU packets be rare.
	if counts[64] <= counts[570] || counts[570] <= counts[1518] || counts[1518] == 0 {
		t.Fatalf("mix weights not respected: %v", counts)
	}
	// Deterministic: same arguments, same packets.
	again := Packets(ISCXDay2, SimpleIMIX, 1200, 7, set)
	for i := range pkts {
		if !bytes.Equal(pkts[i], again[i]) {
			t.Fatalf("packet %d differs between identical calls", i)
		}
	}
	// Independent backing arrays: writing one packet must not touch the
	// next (batch consumers hold packets across scans).
	if len(pkts[0]) > 0 {
		orig := append([]byte(nil), pkts[1]...)
		for i := range pkts[0] {
			pkts[0][i] = 0xFF
		}
		if !bytes.Equal(pkts[1], orig) {
			t.Fatal("packets share backing memory")
		}
	}
}

func TestFixedPackets(t *testing.T) {
	pkts := FixedPackets(DARPA2000, 64, 50, 3, nil)
	if len(pkts) != 50 {
		t.Fatalf("got %d packets", len(pkts))
	}
	for _, p := range pkts {
		if len(p) != 64 {
			t.Fatalf("packet of %d bytes, want 64", len(p))
		}
	}
}

package core

import (
	"testing"

	"vpatch/internal/accel"
	"vpatch/internal/engine"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
	"vpatch/internal/vec"
)

// laneOnly is the emulation-only part of Counters: what the explicit
// vector engine (or S-PATCH's per-position scalar chain) counts and the
// fused production kernels do not.
type laneOnly struct {
	F1, F2, F3                   uint64
	VectorIters, Gathers, Merged uint64
	F3Blocks, F3Useful           uint64
}

func laneOnlyOf(c *metrics.Counters) laneOnly {
	return laneOnly{
		F1: c.Filter1Probes, F2: c.Filter2Probes, F3: c.Filter3Probes,
		VectorIters: c.VectorIters, Gathers: c.Gathers, Merged: c.MergedGathers,
		F3Blocks: c.Filter3Blocks, F3Useful: c.Filter3UsefulLanes,
	}
}

// produced is the part of Counters every rendition must agree on: the
// filtering round's output and the verification round's work.
type produced struct {
	Bytes, Short, Long, HT, Attempts, VerifyBytes, Matches uint64
}

func producedOf(c *metrics.Counters) produced {
	return produced{c.BytesScanned, c.ShortCandidates, c.LongCandidates,
		c.HTProbes, c.VerifyAttempts, c.VerifyBytes, c.Matches}
}

type bufMatch struct {
	buf int
	m   patterns.Match
}

// TestCountersNeverChooseRendition is the differential test over
// {V-PATCH, S-PATCH} x {Scan, ScanBatch} x {nil counters, plain
// counters, lane-exact opt-in}: attaching counters must not change what
// a scan reports or which counters of the production path it fills, the
// emulation-only counters stay zero without Counters.LaneExact, and with
// it they read the plain Algorithms 1 and 2 over every position: the
// golden values below are the lane-exact counts of an unaccelerated
// (NoAccel) build from before the lane-exact renditions lost their skip
// loops, which a default build now reproduces exactly, with no skip
// tally. Both algorithms run one scan loop whose lane-exact batch rounds
// span buffers yet filter each buffer's chunks exactly as a serial scan
// of that buffer does, so the batch goldens equal the per-buffer serial
// counts, which the end of the test checks directly.
func TestCountersNeverChooseRendition(t *testing.T) {
	set := patterns.GenerateS1(7).Subset(300, 2)
	serial := traffic.Synthesize(traffic.ISCXDay2, 150<<10, 5, set) // three chunks
	batch := traffic.FixedPackets(traffic.ISCXDay2, 200, 64, 9, set)
	batch = append(batch, nil, []byte("x"), []byte("ab"), serial[:70<<10], []byte("GET"))

	vp := NewVPatch(set, VOptions{})
	sp := NewSPatch(set, Options{})
	if !vp.accelOn() {
		t.Fatal("test needs an accelerated set (skip tallies are part of it)")
	}

	type scanFn func(c *metrics.Counters, emit func(int, patterns.Match))
	cases := []struct {
		name string
		run  scanFn
		lane laneOnly // golden: the lane-exact counters of this scan
	}{
		{"vpatch/scan", func(c *metrics.Counters, emit func(int, patterns.Match)) {
			vp.Scan(serial, c, func(m patterns.Match) { emit(0, m) })
		}, laneOnly{F1: 153599, F2: 153599, F3: 88968, VectorIters: 19199, Gathers: 30320, Merged: 19199,
			F3Blocks: 11121, F3Useful: 16749}},
		{"vpatch/batch", func(c *metrics.Counters, emit func(int, patterns.Match)) {
			vp.ScanBatch(batch, c, emit)
		}, laneOnly{F1: 84418, F2: 84418, F3: 51031, VectorIters: 10495, Gathers: 16868, Merged: 10495,
			F3Blocks: 6373, F3Useful: 9664}},
		{"spatch/scan", func(c *metrics.Counters, emit func(int, patterns.Match)) {
			sp.Scan(serial, c, func(m patterns.Match) { emit(0, m) })
		}, laneOnly{F1: 153599, F2: 153599, F3: 16749}},
		{"spatch/batch", func(c *metrics.Counters, emit func(int, patterns.Match)) {
			engine.ScanBatch(sp, sp.builtinScratch(), batch, c, emit)
		}, laneOnly{F1: 84418, F2: 84418, F3: 9711}},
	}
	for _, tc := range cases {
		collect := func(c *metrics.Counters) []bufMatch {
			var out []bufMatch
			tc.run(c, func(b int, m patterns.Match) { out = append(out, bufMatch{b, m}) })
			return out
		}
		want := collect(nil)
		if len(want) == 0 {
			t.Fatalf("%s: test needs matches", tc.name)
		}
		var plain metrics.Counters
		lane := metrics.Counters{LaneExact: true}
		for name, c := range map[string]*metrics.Counters{"plain": &plain, "lane-exact": &lane} {
			if got := collect(c); !sameMultiset(got, want) {
				t.Fatalf("%s: %s counters changed the matches: %d, want %d", tc.name, name, len(got), len(want))
			}
		}

		// Production-path counters: identical whichever rendition ran.
		if p, l := producedOf(&plain), producedOf(&lane); p != l {
			t.Fatalf("%s: production counters differ:\n plain      %+v\n lane-exact %+v", tc.name, p, l)
		}
		if plain.Matches != uint64(len(want)) || plain.ShortCandidates+plain.LongCandidates == 0 {
			t.Fatalf("%s: plain counters not filled: %+v", tc.name, plain)
		}
		if plain.FilteringNs <= 0 || plain.VerifyNs <= 0 {
			t.Fatalf("%s: plain counters carry no phase times", tc.name)
		}
		// The skip tallies are the governor's per-span ones there.
		if plain.SkippedBytes == 0 || plain.SkippedBytes >= plain.BytesScanned ||
			plain.AccelChances == 0 || plain.AccelRuns > plain.AccelChances {
			t.Fatalf("%s: implausible skip tallies: skipped %d of %d bytes, %d of %d spans kept",
				tc.name, plain.SkippedBytes, plain.BytesScanned, plain.AccelRuns, plain.AccelChances)
		}

		// Emulation-only counters: zero without the opt-in, golden with it.
		if got := laneOnlyOf(&plain); got != (laneOnly{}) {
			t.Fatalf("%s: plain counters ran the emulation: %+v", tc.name, got)
		}
		if got := laneOnlyOf(&lane); got != tc.lane {
			t.Fatalf("%s: lane-exact counters moved:\n got  %+v\n want %+v", tc.name, got, tc.lane)
		}
		if lane.SkippedBytes != 0 || lane.AccelChances != 0 || lane.AccelRuns != 0 {
			t.Fatalf("%s: the lane-exact rendition skipped %d bytes over %d spans",
				tc.name, lane.SkippedBytes, lane.AccelChances)
		}
	}

	// A lane-exact batch is the serial lane-exact scan of each buffer.
	perBuf, whole := metrics.Counters{LaneExact: true}, metrics.Counters{LaneExact: true}
	for _, b := range batch {
		vp.Scan(b, &perBuf, nil)
	}
	vp.ScanBatch(batch, &whole, nil)
	if p, w := laneOnlyOf(&perBuf), laneOnlyOf(&whole); p != w {
		t.Fatalf("lane-exact batch is not the per-buffer scan:\n per buffer %+v\n batch      %+v", p, w)
	}
}

// sameMultiset compares match lists irrespective of report order, which
// is not part of the scan contract.
func sameMultiset(a, b []bufMatch) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[bufMatch]int, len(a))
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		if seen[x]--; seen[x] < 0 {
			return false
		}
	}
	return true
}

// TestFusedSkipTallyExact pins the per-span skip tally on inputs whose
// viable positions are known: every position of an accelerated range is
// either skipped or queued for the probe chain, never both.
func TestFusedSkipTallyExact(t *testing.T) {
	set := patterns.FromStrings("evil", "ev")
	vp := NewVPatch(set, VOptions{})
	sp := NewSPatch(set, Options{})
	if !vp.accelOn() {
		t.Fatal("two-pattern set must accelerate")
	}
	// 10 KiB of zeros with an 'e' every 100 bytes: in index-byte mode the
	// only viable positions are the 'e's inside the accelerated range
	// (all but the final sub-window positions).
	input := make([]byte, 10<<10)
	viable := 0
	for i := 50; i < len(input)-3; i += 100 {
		input[i] = 'e'
		viable++
	}
	for name, scan := range map[string]func(c *metrics.Counters){
		"vpatch": func(c *metrics.Counters) { vp.Scan(input, c, nil) },
		"spatch": func(c *metrics.Counters) { sp.Scan(input, c, nil) },
	} {
		var c metrics.Counters
		scan(&c)
		accelerated := uint64(len(input) - 3)
		if got := c.SkippedBytes + uint64(viable); got != accelerated {
			t.Fatalf("%s: skipped %d + viable %d != %d accelerated positions", name, c.SkippedBytes, viable, accelerated)
		}
		if spans := uint64(5); c.AccelChances != spans || c.AccelRuns != spans {
			t.Fatalf("%s: %d spans, %d kept, want %d of %d", name, c.AccelChances, c.AccelRuns, spans, spans)
		}
	}
}

// TestFusedSkipTallyWindowMode: in window-bitmap mode the tally counts
// exactly the non-viable positions of the accelerated range, which ends
// at most one kernel block before the last full window — whatever
// extract kernel the host dispatches to.
func TestFusedSkipTallyWindowMode(t *testing.T) {
	set := patterns.GenerateS1(7).Subset(300, 2)
	input := traffic.Synthesize(traffic.ISCXDay2, 40<<10, 3, set)
	for _, kern := range vec.Kernels() {
		vp := NewVPatch(set, VOptions{ForceKernel: kern})
		if vp.accel.Mode() != accel.ModeWindow {
			t.Fatalf("set compiles to %v, test needs window mode", vp.accel.Mode())
		}
		nonViable := func(end int) (n uint64) {
			for i := 0; i < end; i++ {
				if !vp.accel.ViableWindow(uint32(input[i]) | uint32(input[i+1])<<8) {
					n++
				}
			}
			return n
		}
		var c metrics.Counters
		vp.Scan(input, &c, nil)
		lo, hi := nonViable(len(input)-3-8), nonViable(len(input)-3)
		if c.SkippedBytes < lo || c.SkippedBytes > hi {
			t.Fatalf("%v: skipped %d, want within [%d, %d]", kern, c.SkippedBytes, lo, hi)
		}
		if spans := uint64(len(input)/accel.SpanBytes) + 1; c.AccelChances > spans || c.AccelChances < spans-1 {
			t.Fatalf("%v: %d spans over %d bytes", kern, c.AccelChances, len(input))
		}
	}
}

// TestBuildAccelMatchesPredicate: the word-wise table build from the
// merged filter must equal the build from the per-window predicate it
// replaced.
func TestBuildAccelMatchesPredicate(t *testing.T) {
	for name, set := range accelCases() {
		m := NewVPatch(set, VOptions{})
		mf := m.fs.Merged
		for idx := uint32(0); idx < 1<<16; idx++ {
			f1, f2 := mf.Test(idx)
			if got := m.accel.ViableWindow(idx); got != (f1 || f2) {
				t.Fatalf("%s: window %#04x viable=%v, filters say %v", name, idx, got, f1 || f2)
			}
		}
	}
}

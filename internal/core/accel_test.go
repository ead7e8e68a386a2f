package core

import (
	"math/rand"
	"testing"

	"vpatch/internal/accel"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

// Property tests of the acceleration layer: every accelerated path —
// fused window-bitmap, fused index-byte, the governor's plain
// fallbacks, and the batch path — must be match- and candidate-identical
// to the lane-exact reference (laneFilter/laneCollect, which never skip),
// across widths, match densities and adversarial edge inputs.

// accelCases builds pattern sets exercising each skip mode.
func accelCases() map[string]*patterns.Set {
	web := patterns.GenerateS1(1).WebSubset().Subset(300, 1)

	rare := patterns.NewSet()
	rare.Add([]byte("\x00\x01evil"), false, patterns.ProtoGeneric)
	rare.Add([]byte("\x00\x01BAD"), true, patterns.ProtoGeneric)
	rare.Add([]byte("\x00"), false, patterns.ProtoGeneric) // 1-byte: final-byte special case

	tiny := patterns.NewSet()
	tiny.Add([]byte("ab"), false, patterns.ProtoGeneric)
	tiny.Add([]byte("abcd"), true, patterns.ProtoGeneric)
	tiny.Add([]byte("q"), false, patterns.ProtoGeneric)

	return map[string]*patterns.Set{"web": web, "rare": rare, "tiny": tiny}
}

// accelInputs builds the adversarial input family for a set: random at
// several densities, start bytes pinned to buffer edges, sub-4-byte
// tails, governor-crossing mixes of dense and clean regions.
func accelInputs(set *patterns.Set, rng *rand.Rand) [][]byte {
	var inputs [][]byte
	// Random buffers across the size ladder, including every sub-window
	// length.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 63, 64, 65, 1000, 4096} {
		b := make([]byte, n)
		rng.Read(b)
		inputs = append(inputs, b)
	}
	// Injected densities over random bases.
	for _, frac := range []float64{0.1, 0.5, 1.0} {
		b := traffic.Random(8192, rng.Int63())
		traffic.InjectMatches(b, set, frac, rng.Int63())
		inputs = append(inputs, b)
	}
	// Pattern occurrences pinned at buffer edges (first byte, last full
	// window, and truncated at the very end).
	for i := range set.Patterns() {
		p := set.Patterns()[i].Data
		b := make([]byte, 32+len(p))
		rng.Read(b)
		copy(b, p)                 // at offset 0
		copy(b[len(b)-len(p):], p) // flush with the end
		inputs = append(inputs, b)
		if len(p) > 1 && len(p) <= 16 {
			c := make([]byte, 16)
			rng.Read(c)
			copy(c[16-(len(p)-1):], p[:len(p)-1]) // truncated prefix at end
			inputs = append(inputs, c)
		}
	}
	// Governor-crossing input: alternating dense and clean regions far
	// larger than the span, so accelerated spans, plain fallbacks and
	// re-enables all occur within one scan.
	mixed := make([]byte, 160<<10)
	rng.Read(mixed)
	for off := 0; off < len(mixed); off += 64 << 10 {
		end := off + 32<<10
		if end > len(mixed) {
			end = len(mixed)
		}
		seg := mixed[off:end]
		traffic.InjectMatches(seg, set, 1.0, rng.Int63())
	}
	inputs = append(inputs, mixed)
	return inputs
}

// TestAccelFusedMatchesLaneExact is the acceleration fidelity
// property: for every skip mode, width, density and adversarial edge
// input, the accelerated fused paths produce candidate arrays
// (aShort/aLong) and match streams identical to the unaccelerated
// lane-exact vector-engine path, and the batch path stays per-buffer
// identical.
func TestAccelFusedMatchesLaneExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, set := range accelCases() {
		for _, width := range []int{4, 8, 16} {
			m := NewVPatch(set, VOptions{Width: width})
			if name == "rare" && m.accel.Mode() != accel.ModeIndexByte {
				t.Fatalf("rare set selected %v, want index-byte", m.accel.Mode())
			}
			if name == "web" && m.accel.Mode() != accel.ModeWindow {
				t.Fatalf("web set selected %v, want window-bitmap", m.accel.Mode())
			}
			inputs := accelInputs(set, rng)
			for ii, input := range inputs {
				fs, fl := m.FilterOnly(input, nil, true)
				rs, rl := m.laneFilter(t, input)
				if !equalInt32(fs, rs) || !equalInt32(fl, rl) {
					t.Fatalf("%s W=%d input %d (len %d): candidate arrays diverge (accel %d/%d vs engine %d/%d)",
						name, width, ii, len(input), len(fs), len(fl), len(rs), len(rl))
				}
				if fm, rm := m.collect(input), m.laneCollect(t, input); !patterns.EqualMatches(fm, rm) {
					t.Fatalf("%s W=%d input %d: matches diverge (%d vs %d)",
						name, width, ii, len(fm), len(rm))
				}
			}
			// Batch path: one call over the whole family must equal the
			// reference scanned buffer by buffer.
			type bm struct {
				buf int
				m   patterns.Match
			}
			var got []bm
			m.ScanBatch(inputs, nil, func(buf int, mm patterns.Match) {
				got = append(got, bm{buf, mm})
			})
			var want []bm
			for bi, input := range inputs {
				for _, mm := range m.laneCollect(t, input) {
					want = append(want, bm{bi, mm})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s W=%d: batch %d matches vs serial reference %d", name, width, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s W=%d: batch match %d = %+v, want %+v", name, width, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAccelSPatchMatchesPlain covers the S-PATCH rendition (split
// probes) of the accelerated kernels against the plain kernels. The two
// probe chains are candidate-identical by design, so a constructor that
// forgot common.split would still pass the candidate comparison while
// S-PATCH quietly ran V-PATCH's merged probes; the rendition is
// therefore asserted directly.
func TestAccelSPatchMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, set := range accelCases() {
		on := NewSPatch(set, Options{})
		off := NewSPatch(set, Options{NoAccel: true})
		if !on.split || !off.split {
			t.Fatalf("%s: S-PATCH must run the split probe chain (%v/%v)", name, on.split, off.split)
		}
		for ii, input := range accelInputs(set, rng) {
			os_, ol := on.FilterOnly(input, nil)
			ps, pl := off.FilterOnly(input, nil)
			if !equalInt32(os_, ps) || !equalInt32(ol, pl) {
				t.Fatalf("%s input %d: S-PATCH candidates diverge", name, ii)
			}
			if a, b := on.collect(input), off.collect(input); !patterns.EqualMatches(a, b) {
				t.Fatalf("%s input %d: S-PATCH matches diverge", name, ii)
			}
		}
	}
}

// TestAccelInstrumentedIdentical: the lane-exact paths (Counters.LaneExact
// — Algorithm 2's vector engine for V-PATCH, Algorithm 1's scalar chain
// for S-PATCH) must emit the same matches as the fused production paths
// and never skip: S-PATCH probes every window, and neither rendition
// reports a skip tally.
func TestAccelInstrumentedIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, set := range accelCases() {
		vp := NewVPatch(set, VOptions{})
		sp := NewSPatch(set, Options{})
		for ii, input := range accelInputs(set, rng) {
			var timed, counted []patterns.Match
			vp.Scan(input, nil, func(m patterns.Match) { timed = append(timed, m) })
			vc := metrics.Counters{LaneExact: true}
			vp.Scan(input, &vc, func(m patterns.Match) { counted = append(counted, m) })
			if !patterns.EqualMatches(timed, counted) {
				t.Fatalf("%s input %d: V-PATCH instrumented diverges", name, ii)
			}
			timed, counted = nil, nil
			sp.Scan(input, nil, func(m patterns.Match) { timed = append(timed, m) })
			sc := metrics.Counters{LaneExact: true}
			sp.Scan(input, &sc, func(m patterns.Match) { counted = append(counted, m) })
			if !patterns.EqualMatches(timed, counted) {
				t.Fatalf("%s input %d: S-PATCH instrumented diverges", name, ii)
			}
			if n := len(input); n > 1 && sc.Filter1Probes != uint64(n-1) {
				t.Fatalf("%s input %d: S-PATCH probed %d of %d windows", name, ii, sc.Filter1Probes, n-1)
			}
			for r, c := range map[string]*metrics.Counters{"V-PATCH": &vc, "S-PATCH": &sc} {
				if c.SkippedBytes != 0 || c.AccelChances != 0 || c.AccelRuns != 0 {
					t.Fatalf("%s input %d: lane-exact %s reported skips: %d bytes, %d/%d spans",
						name, ii, r, c.SkippedBytes, c.AccelRuns, c.AccelChances)
				}
			}
		}
	}
}

// TestAccelSkipFracFallsWithDensity is the skip loop's density claim,
// read from the production path's skip counters rather than a clock: on
// clean random traffic against the 2K web set most bytes are skipped
// without a probe and governor spans keep the skip loop engaged, and
// injecting matches over the whole buffer lowers the skip fraction, at
// packet and chunk sizes alike.
func TestAccelSkipFracFallsWithDensity(t *testing.T) {
	set := patterns.GenerateS1(1).WebSubset()
	vp := NewVPatch(set, VOptions{})
	for _, size := range []int{1514, 64 << 10} {
		skip := map[float64]float64{}
		for _, frac := range []float64{0, 1.0} {
			data := traffic.Random(512<<10, 1)
			traffic.InjectMatches(data, set, frac, 1+int64(frac*1000))
			var c metrics.Counters
			for lo := 0; lo < len(data); lo += size {
				vp.Scan(data[lo:min(lo+size, len(data))], &c, nil)
			}
			skip[frac] = c.SkipFrac()
			if frac == 0 && c.AccelRuns == 0 {
				t.Errorf("buf %d: clean traffic kept the skip loop in no span", size)
			}
		}
		t.Logf("buf %d: skip fraction %.3f clean, %.3f at 100%% density", size, skip[0], skip[1.0])
		if skip[0] <= 0.5 {
			t.Errorf("buf %d: clean skip fraction %.3f, want > 0.5", size, skip[0])
		}
		if skip[1.0] >= skip[0] {
			t.Errorf("buf %d: skip fraction did not fall with density (%.3f -> %.3f)",
				size, skip[0], skip[1.0])
		}
	}
}

// FuzzAccelFused fuzzes the fidelity property on arbitrary bytes: the
// accelerated fused path must equal the lane-exact reference for every
// input and for both window and index-byte skip modes.
func FuzzAccelFused(f *testing.F) {
	f.Add([]byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n"))
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte("\x00\x01evil\x00\x01e"))
	f.Add([]byte("abababababab"))
	engines := map[string]*VPatch{}
	for name, set := range accelCases() {
		engines[name] = NewVPatch(set, VOptions{})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, m := range engines {
			fs, fl := m.FilterOnly(data, nil, true)
			rs, rl := m.laneFilter(t, data)
			if !equalInt32(fs, rs) || !equalInt32(fl, rl) {
				t.Fatalf("%s: accelerated candidates diverge on %q", name, data)
			}
		}
	})
}

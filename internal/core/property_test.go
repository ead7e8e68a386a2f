package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
)

// Property-based invariants of the two-round design, via testing/quick.

// genSet derives a small pattern set from a seed: tiny alphabet so
// collisions, overlaps and shared prefixes are frequent.
func genSet(seed int64) *patterns.Set {
	rng := rand.New(rand.NewSource(seed))
	set := patterns.NewSet()
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(10)
		p := make([]byte, l)
		for j := range p {
			p[j] = byte('a' + rng.Intn(3))
		}
		set.Add(p, rng.Intn(5) == 0, patterns.ProtoGeneric)
	}
	return set
}

func genInput(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed ^ 0xABCD))
	input := make([]byte, n)
	for i := range input {
		input[i] = byte('a' + rng.Intn(3))
	}
	return input
}

// Property: every position a pattern occurs at appears in the candidate
// arrays (filters never produce false negatives).
func TestPropertyFiltersNoFalseNegatives(t *testing.T) {
	f := func(seed int64, sizeRaw uint16) bool {
		set := genSet(seed)
		input := genInput(seed, 50+int(sizeRaw%1000))
		sp := NewSPatch(set, Options{})
		short, long := sp.FilterOnly(input, nil)
		inShort := map[int32]bool{}
		for _, p := range short {
			inShort[p] = true
		}
		inLong := map[int32]bool{}
		for _, p := range long {
			inLong[p] = true
		}
		for _, m := range patterns.FindAllNaive(set, input) {
			p := set.Pattern(m.PatternID)
			if p.IsShort() {
				if !inShort[m.Pos] {
					return false
				}
			} else if !inLong[m.Pos] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: candidate arrays are strictly increasing (each position
// stored at most once, in scan order) within every chunk scan.
func TestPropertyCandidateArraysSortedUnique(t *testing.T) {
	f := func(seed int64) bool {
		set := genSet(seed)
		input := genInput(seed, 700)
		vp := NewVPatch(set, VOptions{ChunkSize: 1 << 20})
		short, long := vp.FilterOnly(input, nil, true)
		for _, arr := range [][]int32{short, long} {
			for i := 1; i < len(arr); i++ {
				if arr[i] <= arr[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: scan output is independent of chunk size.
func TestPropertyChunkInvariance(t *testing.T) {
	f := func(seed int64, chunkRaw uint16) bool {
		set := genSet(seed)
		input := genInput(seed, 900)
		chunk := 32 + int(chunkRaw%2048)
		a := NewSPatch(set, Options{}).collect(input)
		b := NewSPatch(set, Options{ChunkSize: chunk}).collect(input)
		c := NewVPatch(set, VOptions{ChunkSize: chunk}).collect(input)
		return patterns.EqualMatches(a, b) && patterns.EqualMatches(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func (m *SPatch) collect(input []byte) []patterns.Match {
	var out []patterns.Match
	m.Scan(input, nil, func(mm patterns.Match) { out = append(out, mm) })
	return out
}

func (m *VPatch) collect(input []byte) []patterns.Match {
	var out []patterns.Match
	m.Scan(input, nil, func(mm patterns.Match) { out = append(out, mm) })
	return out
}

// The tests' reference renditions are lane-exact scans of the same
// build: Algorithm 1's per-position scalar chain for S-PATCH, Algorithm
// 2 on the explicit vector engine for V-PATCH, with no skip loop and no
// native kernel. The helpers fail the test when the rendition probed
// nothing (S-PATCH) or ran no vector block (V-PATCH) over an input long
// enough for one, so a reference never silently takes the fused path.

func (m *SPatch) laneCollect(t testing.TB, input []byte) []patterns.Match {
	t.Helper()
	var out []patterns.Match
	c := metrics.Counters{LaneExact: true}
	m.Scan(input, &c, func(mm patterns.Match) { out = append(out, mm) })
	if len(input) >= 2 && c.Filter1Probes == 0 {
		t.Fatalf("lane-exact reference probed nothing over %d bytes", len(input))
	}
	return out
}

func (m *VPatch) laneFilter(t testing.TB, input []byte) (short, long []int32) {
	t.Helper()
	c := metrics.Counters{LaneExact: true}
	short, long = m.FilterOnly(input, &c, true)
	m.checkLaneRan(t, len(input), &c)
	return short, long
}

func (m *VPatch) laneCollect(t testing.TB, input []byte) []patterns.Match {
	t.Helper()
	var out []patterns.Match
	c := metrics.Counters{LaneExact: true}
	m.Scan(input, &c, func(mm patterns.Match) { out = append(out, mm) })
	m.checkLaneRan(t, len(input), &c)
	return out
}

func (m *VPatch) checkLaneRan(t testing.TB, n int, c *metrics.Counters) {
	t.Helper()
	if n >= m.Width()+3 && c.VectorIters == 0 {
		t.Fatalf("lane-exact reference ran no vector block over %d bytes", n)
	}
}

// Property: the lane-exact engine path and the fused fast path produce
// identical candidates for arbitrary inputs.
func TestPropertyEnginePathEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		set := genSet(seed)
		input := genInput(seed, 600)
		m := NewVPatch(set, VOptions{})
		fs, fl := m.FilterOnly(input, nil, true)
		es, el := m.laneFilter(t, input)
		return equalInt32(fs, es) && equalInt32(fl, el)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

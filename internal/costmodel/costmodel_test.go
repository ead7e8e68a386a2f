package costmodel

import (
	"math"
	"testing"

	"vpatch/internal/metrics"
)

func TestLatencyForLevels(t *testing.T) {
	p := Haswell
	cases := []struct {
		bytes int
		want  float64
	}{
		{1 << 10, p.L1Lat},
		{32 << 10, p.L1Lat},
		{33 << 10, p.L2Lat},
		{256 << 10, p.L2Lat},
		{1 << 20, p.L3Lat},
		{35 << 20, p.L3Lat},
		{64 << 20, p.MemLat},
	}
	for _, c := range cases {
		if got := p.latencyFor(c.bytes); got != c.want {
			t.Errorf("latencyFor(%d) = %v, want %v", c.bytes, got, c.want)
		}
	}
}

func TestPhiHasNoL3(t *testing.T) {
	// On Phi anything beyond L2 pays device-memory latency.
	if got := XeonPhi.latencyFor(1 << 20); got != XeonPhi.MemLat {
		t.Fatalf("Phi 1MB latency %v, want MemLat %v", got, XeonPhi.MemLat)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindAhoCorasick: "Aho-Corasick", KindDFC: "DFC", KindVectorDFC: "Vector-DFC",
		KindSPatch: "S-PATCH", KindVPatch: "V-PATCH",
	} {
		if k.String() != want {
			t.Errorf("Kind %d = %q", k, k.String())
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must format")
	}
}

func TestEstimateZeroCountersZeroCycles(t *testing.T) {
	r := Estimate(Haswell, Inputs{Kind: KindDFC, Counters: &metrics.Counters{}})
	if r.Cycles != 0 || r.Gbps != 0 {
		t.Fatalf("zero input produced cycles=%v gbps=%v", r.Cycles, r.Gbps)
	}
}

func TestACCostGrowsWithAutomatonSize(t *testing.T) {
	c := &metrics.Counters{BytesScanned: 1 << 20, DFAAccesses: 1 << 20}
	small := Estimate(Haswell, Inputs{Kind: KindAhoCorasick, Counters: c, DFABytes: 128 << 10})
	big := Estimate(Haswell, Inputs{Kind: KindAhoCorasick, Counters: c, DFABytes: 512 << 20})
	if big.Gbps >= small.Gbps {
		t.Fatalf("bigger automaton must be slower: small %.2f big %.2f", small.Gbps, big.Gbps)
	}
}

func TestVerificationCostsMoreOnPhi(t *testing.T) {
	// Same counters, same (L3-sized) tables: Phi must charge memory
	// latency where Haswell charges L3 — the crossover driver of Fig. 7.
	c := &metrics.Counters{BytesScanned: 1 << 20, LongCandidates: 100000, Filter1Probes: 1 << 20}
	in := Inputs{Kind: KindDFC, Counters: c, HTBytes: 4 << 20}
	hw := Estimate(Haswell, in)
	phi := Estimate(XeonPhi, in)
	if phi.Breakdown["verify-long"] <= hw.Breakdown["verify-long"] {
		t.Fatalf("verify-long cycles: phi %.0f <= haswell %.0f",
			phi.Breakdown["verify-long"], hw.Breakdown["verify-long"])
	}
	ratio := phi.Breakdown["verify-long"] / hw.Breakdown["verify-long"]
	if ratio != XeonPhi.MemLat/Haswell.L3Lat {
		t.Fatalf("verify-long ratio %.2f, want MemLat/L3Lat = %.2f",
			ratio, XeonPhi.MemLat/Haswell.L3Lat)
	}
}

func TestDFAModelDegradesOnMissGrowth(t *testing.T) {
	// Hot-state model: cost at 2x last-level cache must exceed cost at
	// exactly the last-level size, by MissGrow worth of spill latency.
	p := Haswell
	atL3 := p.dfaAccessCost(p.L3Bytes)
	at2x := p.dfaAccessCost(2 * p.L3Bytes)
	if at2x <= atL3 {
		t.Fatalf("no degradation beyond L3: %v vs %v", atL3, at2x)
	}
	// Miss fraction is capped (MaxInt: portable to 32-bit GOARCHes).
	huge := p.dfaAccessCost(math.MaxInt)
	if huge > 0.6*p.MemLat+p.L1Lat {
		t.Fatalf("miss cap not applied: %v", huge)
	}
}

func TestSPatchChargedForStores(t *testing.T) {
	c := &metrics.Counters{BytesScanned: 1 << 20, ShortCandidates: 1000, LongCandidates: 100}
	sp := Estimate(Haswell, Inputs{Kind: KindSPatch, Counters: c})
	d := Estimate(Haswell, Inputs{Kind: KindDFC, Counters: c})
	if sp.Breakdown["stores"] == 0 {
		t.Fatal("S-PATCH must pay for candidate stores")
	}
	if d.Breakdown["stores"] != 0 {
		t.Fatal("inline DFC must not pay store costs")
	}
}

func TestVectorRescalingToWiderPlatform(t *testing.T) {
	// A W=8 measurement projected on a 16-lane platform should halve the
	// gather and vec-op cycles.
	c := &metrics.Counters{BytesScanned: 1 << 20, Gathers: 100000, VectorIters: 100000}
	in := Inputs{Kind: KindVPatch, Counters: c, VectorWidth: 8}
	r8on8 := Estimate(Haswell, in) // Haswell is 8 lanes: scale 1
	r8on16 := Estimate(XeonPhi, in)
	wantGather := r8on8.Breakdown["gather"] / 2 * (XeonPhi.GatherLat / Haswell.GatherLat)
	if diff := r8on16.Breakdown["gather"] - wantGather; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("phi gather cycles %.1f, want %.1f", r8on16.Breakdown["gather"], wantGather)
	}
}

func TestVPatchBeatsSPatchWhenFilteringDominates(t *testing.T) {
	// Construct counters for the same workload: scalar probes ~3/byte vs
	// one gather per W positions. The model must prefer the vector run on
	// both platforms, more strongly on Phi.
	bytes := uint64(1 << 20)
	scalar := &metrics.Counters{
		BytesScanned:  bytes,
		Filter1Probes: bytes, Filter2Probes: bytes, Filter3Probes: bytes / 10,
		HTProbes: bytes / 100, VerifyBytes: bytes / 50, VerifyAttempts: bytes / 100,
	}
	vector := &metrics.Counters{
		BytesScanned: bytes,
		Gathers:      bytes/8 + bytes/80, VectorIters: bytes / 8,
		MergedGathers: bytes / 8,
		HTProbes:      bytes / 100, VerifyBytes: bytes / 50, VerifyAttempts: bytes / 100,
		ShortCandidates: bytes / 200, LongCandidates: bytes / 500,
	}
	sIn := Inputs{Kind: KindSPatch, Counters: scalar, HTBytes: 4 << 20}
	vIn := Inputs{Kind: KindVPatch, Counters: vector, HTBytes: 4 << 20, VectorWidth: 8}

	hwS, hwV := Estimate(Haswell, sIn), Estimate(Haswell, vIn)
	phiS, phiV := Estimate(XeonPhi, sIn), Estimate(XeonPhi, vIn)
	if hwV.Gbps <= hwS.Gbps {
		t.Fatalf("Haswell: V-PATCH %.2f <= S-PATCH %.2f", hwV.Gbps, hwS.Gbps)
	}
	if phiV.Gbps <= phiS.Gbps {
		t.Fatalf("Phi: V-PATCH %.2f <= S-PATCH %.2f", phiV.Gbps, phiS.Gbps)
	}
	hwSpeedup := hwV.Gbps / hwS.Gbps
	phiSpeedup := phiV.Gbps / phiS.Gbps
	if phiSpeedup <= hwSpeedup {
		t.Fatalf("vectorization speedup must be larger on Phi: haswell %.2f, phi %.2f",
			hwSpeedup, phiSpeedup)
	}
}

func TestGbpsScalesWithClock(t *testing.T) {
	c := &metrics.Counters{BytesScanned: 1 << 20, Filter1Probes: 1 << 20}
	in := Inputs{Kind: KindDFC, Counters: c}
	slow := Haswell
	slow.ClockGHz = 1.15
	fast := Estimate(Haswell, in)
	half := Estimate(slow, in)
	ratio := fast.Gbps / half.Gbps
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("halving the clock must halve throughput; ratio %.3f", ratio)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	c := &metrics.Counters{
		BytesScanned: 1 << 20, Gathers: 1 << 17, VectorIters: 1 << 17,
		HTProbes: 1000, VerifyBytes: 5000, VerifyAttempts: 500,
		ShortCandidates: 2000, LongCandidates: 100,
	}
	r := Estimate(Haswell, Inputs{Kind: KindVPatch, Counters: c, VectorWidth: 8})
	sum := 0.0
	for _, v := range r.Breakdown {
		sum += v
	}
	if diff := sum - r.Cycles; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("breakdown sum %.2f != total %.2f", sum, r.Cycles)
	}
}

func TestHaswellParametersSane(t *testing.T) {
	for _, p := range []Platform{Haswell, XeonPhi} {
		if p.L1Lat >= p.L2Lat || p.L2Lat >= p.MemLat {
			t.Fatalf("%s: latency ordering broken", p.Name)
		}
		if p.ClockGHz <= 0 || p.VectorLanes <= 0 || p.ILP <= 0 {
			t.Fatalf("%s: non-positive parameter", p.Name)
		}
	}
	if Haswell.VectorLanes != 8 || XeonPhi.VectorLanes != 16 {
		t.Fatal("paper platform widths wrong")
	}
	if XeonPhi.L3Bytes != 0 {
		t.Fatal("Phi must have no L3")
	}
	if XeonPhi.ILP >= Haswell.ILP {
		t.Fatal("in-order Phi must have lower ILP than OOO Haswell")
	}
}

// TestEstimateReproducible: the same inputs model the same figure,
// bit for bit. The breakdown's components have unrelated magnitudes and
// non-dyadic charges on the in-order Phi, so on these counts summing
// them in map order would make the last bits of Cycles (and the
// figures' ModelGbps) differ between calls.
func TestEstimateReproducible(t *testing.T) {
	c := &metrics.Counters{
		BytesScanned: 1049087, Filter1Probes: 401752, Filter2Probes: 300314, Filter3Probes: 161419,
		VectorIters: 105089, Gathers: 128162, ShortCandidates: 40495, LongCandidates: 466,
		HTProbes: 1445, VerifyAttempts: 4106, VerifyBytes: 23237,
	}
	for _, p := range []Platform{Haswell, XeonPhi} {
		for _, k := range []Kind{KindDFC, KindSPatch, KindVPatch} {
			in := Inputs{Kind: k, Counters: c, HTBytes: 4 << 20, VectorWidth: 8}
			want := Estimate(p, in)
			for i := 0; i < 300; i++ {
				got := Estimate(p, in)
				if math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) ||
					math.Float64bits(got.Gbps) != math.Float64bits(want.Gbps) {
					t.Fatalf("%s %v: call %d modelled %v cycles / %v Gbps, first call %v / %v",
						p.Name, k, i, got.Cycles, got.Gbps, want.Cycles, want.Gbps)
				}
			}
		}
	}
}

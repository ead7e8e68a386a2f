package traffic

import (
	"math/rand"

	"vpatch/internal/patterns"
)

// Packet-size mixes. Throughput on real links is dominated by how the
// byte volume splits into packets — NIDS traffic is overwhelmingly
// small packets — so benchmarks and pipeline tests draw per-packet
// sizes from a mix instead of scanning one contiguous buffer.

// MixEntry is one class of a packet-size mix: packets of Size payload
// bytes appearing with relative frequency Weight.
type MixEntry struct {
	Size   int
	Weight float64
}

// SimpleIMIX is the classic "simple IMIX" distribution used to model
// Internet packet sizes: 7 small, 4 medium and 1 MTU-sized packet per
// 12 (mean ~354 B) — the realistic small-packet-heavy workload the
// batch scan path targets.
var SimpleIMIX = []MixEntry{
	{Size: 64, Weight: 7},
	{Size: 570, Weight: 4},
	{Size: 1518, Weight: 1},
}

// drawSizes samples n packet sizes from mix.
func drawSizes(mix []MixEntry, n int, rng *rand.Rand) []int {
	var wsum float64
	for _, e := range mix {
		wsum += e.Weight
	}
	sizes := make([]int, n)
	for i := range sizes {
		v := rng.Float64() * wsum
		sizes[i] = mix[len(mix)-1].Size // fallback absorbs float rounding
		for _, e := range mix {
			if v < e.Weight {
				sizes[i] = e.Size
				break
			}
			v -= e.Weight
		}
	}
	return sizes
}

// Packets generates n packets whose sizes are drawn from mix and whose
// payload is profile-p traffic (one synthesized stream cut at packet
// boundaries, so consecutive packets continue the same sessions, like
// segments of real flows). Each packet is an independent buffer,
// feeding ScanBatch directly. If set is non-nil, attack patterns are
// embedded per the profile. Deterministic in all arguments.
func Packets(p Profile, mix []MixEntry, n int, seed int64, set *patterns.Set) [][]byte {
	if n <= 0 || len(mix) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x1312))
	sizes := drawSizes(mix, n, rng)
	total := 0
	for _, s := range sizes {
		total += s
	}
	stream := Synthesize(p, total, seed, set)
	out := make([][]byte, n)
	pos := 0
	for i, s := range sizes {
		// One backing allocation per packet: batch consumers treat
		// packets as independent buffers.
		out[i] = append([]byte(nil), stream[pos:pos+s]...)
		pos += s
	}
	return out
}

// FixedPackets is Packets with a single-size mix: n packets of exactly
// size bytes each.
func FixedPackets(p Profile, size, n int, seed int64, set *patterns.Set) [][]byte {
	return Packets(p, []MixEntry{{Size: size, Weight: 1}}, n, seed, set)
}

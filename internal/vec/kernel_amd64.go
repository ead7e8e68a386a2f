//go:build amd64 && !purego

package vec

import "vpatch/internal/cpu"

// The assembly entry point only executes after its CPUID gate: the
// selection logic (accel.SelectKernel via Available) never chooses a
// kernel the host cannot run.
var hasAVX2Kernel = cpu.HasAVX2

// ViableMask64 classifies the 64 positions p[0..63] against the 2^16-bit
// window-viability bitmap: bit j of the result is set when the
// little-endian 2-byte window at p+j is viable. Reads p[0..71]
// (ViableLookahead); the caller guarantees the room. AVX2.
//
//go:noescape
func ViableMask64(p *byte, bitmap *uint64) uint64

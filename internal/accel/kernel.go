package accel

import (
	"math/bits"

	"vpatch/internal/vec"
)

// Kernel-dispatched renditions of the branchless window-bitmap skip:
// the geometry (block size, read lookahead) and the extract loop vary
// per kernel, the contract does not — classify every position in
// [i, limit+block) against the union bitmap and compact the viable
// positions into q in position order. The fused loops in internal/core
// size their bursts from Geometry exactly as they do for the SWAR pack
// loop, so queue and governor bookkeeping are kernel-independent.

// Geometry returns kernel k's extract-loop geometry: block is the
// positions classified per step (the queue can grow by block per
// step), lookahead the bytes a step may read past its base position.
// SWAR geometry (5-position packs over one 8-byte load) is the
// default for any unknown kernel.
func Geometry(k vec.KernelID) (block, lookahead int) {
	if k == vec.KernelAVX2 {
		return 64, vec.ViableLookahead
	}
	return 5, 8
}

// SelectKernel resolves the kernel a compiled engine should run its
// extract loop with: a forced kernel when it is available on this host
// (callers validate availability at the API boundary; an unavailable
// force degrades to SWAR rather than crash), otherwise vec.Best() —
// AVX2 whenever the host has it (its classifier is exact, so no rule
// set's density can hurt it), SWAR everywhere else. The choice depends
// on the host alone, so what an auto-compiled engine runs is what
// vpatch.ActiveKernel reports.
func SelectKernel(force vec.KernelID) vec.KernelID {
	switch {
	case force == vec.KernelAuto:
		return vec.Best()
	case vec.Available(force):
		return force
	}
	return vec.KernelSWAR
}

// ExtractKernel runs kernel k's extract loop. i advances in blocks
// while i <= limit; limit is the last allowed block start and the
// caller guarantees limit+lookahead <= len(input) and
// block*steps <= QueueLen-block-w, mirroring Extract's contract (which
// handles the SWAR case).
func (t *Table) ExtractKernel(k vec.KernelID, input []byte, i, limit int, q *[QueueLen]int32, w int) (int, int) {
	if k == vec.KernelAVX2 {
		return t.extractAVX2(input, i, limit, q, w)
	}
	return t.Extract(input, i, limit, q, w)
}

// extractAVX2 classifies 64 positions per assembly call against the
// exact union bitmap and compacts the survivor mask into the queue.
// Identical survivors to Extract by construction (same bitmap, same
// predicate), so candidate order and content are byte-exact.
func (t *Table) extractAVX2(input []byte, i, limit int, q *[QueueLen]int32, w int) (int, int) {
	for ; i <= limit; i += 64 {
		m := vec.ViableMask64(&input[i], &t.Union[0])
		for ; m != 0; m &= m - 1 {
			q[w&QueueMask] = int32(i + bits.TrailingZeros64(m))
			w++
		}
	}
	return i, w
}

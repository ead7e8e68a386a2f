package vec

import "fmt"

// Native filtering-round kernels.
//
// The emulated Engine in vec.go reproduces the paper's register
// semantics op by op for the instrumented/figure paths; the *kernels*
// here are the production counterparts: single assembly routines that
// classify a whole block of input positions against the acceleration
// layer's compile-time tables and hand back a movemask of the
// survivors, which the fused loops in internal/core compact into the
// existing prefix-sum queue. Selection happens once, at Compile or
// Deserialize time, from the CPUID probe in internal/cpu:
//
//   - KernelAVX2 (64 positions/call): VPSHUFB shuffles each 16-byte
//     load into 2-byte sliding windows, VPGATHERDD probes the 8 KB
//     window-viability bitmap for 8 windows at a time, VPSLLVD moves
//     each window's bit into the sign position and VMOVMSKPS extracts
//     the survivor mask (paper §IV-B's gather/shuffle/movemask recipe
//     applied to the skip loop, where the cycles actually go).
//   - KernelSWAR: the portable fused path (accel.Table.Extract and the
//     5-positions-per-load probe loops) — always available, byte-exact
//     on every architecture, and the reference oracle the assembly is
//     property-tested against.
//
// The `purego` build tag forces the SWAR path on amd64 too (and stubs
// the assembly entry points in pure Go), which is what the cross-build
// CI matrix exercises.

// KernelID identifies a filtering-round kernel implementation.
type KernelID uint8

const (
	// KernelAuto selects the best kernel the host supports at Compile/
	// Deserialize time. It is the zero value, so existing configurations
	// keep auto-dispatch without changes.
	KernelAuto KernelID = iota
	// KernelSWAR is the portable fused path (5 positions per 8-byte
	// load). Always available; the reference oracle.
	KernelSWAR
	// KernelAVX2 is the 32-lane (two 8-dword pipelines per iteration)
	// shuffle+gather+movemask classifier.
	KernelAVX2
)

func (k KernelID) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelSWAR:
		return "swar"
	case KernelAVX2:
		return "avx2"
	}
	return fmt.Sprintf("kernel(%d)", uint8(k))
}

// Available reports whether kernel k can run on this host and build
// (KernelAuto and KernelSWAR always can).
func Available(k KernelID) bool {
	switch k {
	case KernelAuto, KernelSWAR:
		return true
	case KernelAVX2:
		return hasAVX2Kernel
	}
	return false
}

// Best returns the fastest kernel available on this host: the value
// KernelAuto resolves to.
func Best() KernelID {
	if hasAVX2Kernel {
		return KernelAVX2
	}
	return KernelSWAR
}

// Kernels lists the kernels available on this host, SWAR first.
func Kernels() []KernelID {
	ks := []KernelID{KernelSWAR}
	if hasAVX2Kernel {
		ks = append(ks, KernelAVX2)
	}
	return ks
}

// ViableMask64Ref is the portable reference for ViableMask64: bit j of
// the result is set when the little-endian 2-byte window starting at
// input[at+j] (j in 0..63) has its bit set in the 2^16-bit viability
// bitmap. Callers must guarantee at+ViableLookahead <= len(input), the
// same contract as the assembly (which reads full 16-byte groups).
func ViableMask64Ref(input []byte, at int, bitmap *[1024]uint64) uint64 {
	var m uint64
	for j := 0; j < 64; j++ {
		w := uint32(input[at+j]) | uint32(input[at+j+1])<<8
		m |= uint64((bitmap[(w>>6)&1023]>>(w&63))&1) << j
	}
	return m
}

// ViableLookahead is the bytes ViableMask64 may read past its base
// position: eight 16-byte loads at offsets 0,8,...,56.
const ViableLookahead = 72

package cpu

// cpuid executes CPUID with EAX=eaxArg, ECX=ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (the OS-enabled extended state mask); only valid
// when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

const (
	// CPUID.1:ECX bits.
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
	// CPUID.(7,0):EBX bits.
	cpuidAVX2 = 1 << 5
	// XCR0 bits 1 (SSE state) and 2 (AVX/YMM state).
	xcr0SSE = 1 << 1
	xcr0AVX = 1 << 2
)

func init() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)

	// AVX2 needs the CPU feature bit, AVX, and the OS actually saving
	// YMM state across context switches (OSXSAVE + XCR0 SSE|AVX bits).
	osAVX := false
	if ecx1&cpuidOSXSAVE != 0 && ecx1&cpuidAVX != 0 {
		lo, _ := xgetbv()
		osAVX = lo&(xcr0SSE|xcr0AVX) == xcr0SSE|xcr0AVX
	}
	if osAVX && maxID >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		HasAVX2 = ebx7&cpuidAVX2 != 0
	}
}

// Package cpu probes the host processor for the vector instruction-set
// extension the native filtering kernel needs (internal/vec's amd64
// assembly). The probe runs once at init via CPUID/XGETBV on amd64; on
// every other architecture the feature flags are constant false and the
// engines stay on the portable SWAR kernels.
//
// The package deliberately mirrors the runtime's internal/cpu shape
// (exported booleans, filled in by an arch-specific init) instead of
// importing golang.org/x/sys/cpu: the engine needs exactly one bit, and
// keeping the probe in-tree keeps the module free of dependencies.
package cpu

// HasAVX2 reports AVX2 support *and* operating-system YMM state
// saving (XGETBV), so kernels may execute 256-bit instructions.
var HasAVX2 bool

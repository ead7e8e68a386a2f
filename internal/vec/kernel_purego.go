//go:build !amd64 || purego

package vec

import "unsafe"

// Without the amd64 assembly (foreign architecture or the purego build
// tag) no native kernel is available and dispatch resolves to SWAR; the
// entry point below keeps the package API identical so callers need no
// build tags of their own. It is correct (it mirrors ViableMask64Ref)
// but not fast — nothing selects it while hasAVX2Kernel is false.
var hasAVX2Kernel = false

// ViableMask64 is the pure-Go stand-in for the AVX2 classifier.
func ViableMask64(p *byte, bitmap *uint64) uint64 {
	in := unsafe.Slice(p, ViableLookahead)
	bm := (*[1024]uint64)(unsafe.Pointer(bitmap))
	return ViableMask64Ref(in, 0, bm)
}

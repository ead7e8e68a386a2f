package cpu

import (
	"runtime"
	"testing"
)

// TestProbe exercises the init-time probe: it cannot assert specific
// features (the test must pass on any host), but it can assert the
// implication the dispatch logic relies on.
func TestProbe(t *testing.T) {
	t.Logf("GOARCH=%s HasAVX2=%v", runtime.GOARCH, HasAVX2)
	if runtime.GOARCH != "amd64" && HasAVX2 {
		t.Fatal("non-amd64 build reports AVX2")
	}
}

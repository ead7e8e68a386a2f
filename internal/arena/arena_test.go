package arena

import (
	"sync"
	"testing"
)

func TestClassRounding(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {128, 128},
		{1000, 1024}, {1024, 1024}, {1025, 2048},
		{1 << 20, 1 << 20},
	}
	a := New(Config{})
	for _, c := range cases {
		b := a.Rent(c.n)
		if len(b.data) != c.wantCap {
			t.Errorf("Rent(%d): cap %d, want %d", c.n, len(b.data), c.wantCap)
		}
		b.Release()
	}
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("InUse = %d after releasing everything", st.InUse)
	}
}

func TestRecycleReusesChunk(t *testing.T) {
	a := New(Config{})
	b1 := a.Rent(512)
	p1 := &b1.Data()[0]
	b1.Release()
	b2 := a.Rent(400) // same 512 class
	if &b2.Data()[0] != p1 {
		t.Error("recycled rent did not reuse the pooled chunk")
	}
	b2.Release()
	if st := a.Stats(); st.PooledBytes != 512 {
		t.Errorf("PooledBytes = %d, want 512", st.PooledBytes)
	}
}

func TestCapOverflow(t *testing.T) {
	a := New(Config{MaxBytes: 2048})
	b1, b2 := a.Rent(1024), a.Rent(1024) // fills the cap
	b3 := a.Rent(1024)                   // must overflow to heap
	st := a.Stats()
	if st.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", st.Overflows)
	}
	if st.PooledBytes != 2048 {
		t.Fatalf("PooledBytes = %d, want 2048 (cap)", st.PooledBytes)
	}
	if st.InUse != 3 || st.Peak != 3 {
		t.Fatalf("InUse/Peak = %d/%d, want 3/3", st.InUse, st.Peak)
	}
	// Overflow chunks still round-trip through Release.
	for _, b := range []*Buf{b1, b2, b3} {
		b.Release()
	}
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("InUse = %d after release", st.InUse)
	}
	// Oversized rents always overflow, never pool.
	big := a.Rent(MaxChunk + 1)
	if len(big.data) != MaxChunk+1 {
		t.Fatalf("oversize rent cap = %d", len(big.data))
	}
	big.Release()
	if st := a.Stats(); st.PooledBytes > 2048 {
		t.Fatalf("PooledBytes %d exceeded cap", st.PooledBytes)
	}
}

func TestRetainRelease(t *testing.T) {
	a := New(Config{})
	b := a.Rent(64)
	b.Retain()
	b.Release()
	if st := a.Stats(); st.InUse != 1 {
		t.Fatalf("InUse = %d with one live ref", st.InUse)
	}
	b.Release()
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("InUse = %d after final release", st.InUse)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	a := New(Config{})
	b := a.Rent(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	b.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	a := New(Config{})
	b := a.Rent(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("retain-after-release did not panic")
		}
	}()
	b.Retain()
}

func TestLocalCacheRoundTrip(t *testing.T) {
	a := New(Config{})
	l := a.NewLocal()
	// Fill beyond localCap to force a spill to the spine.
	bufs := make([]*Buf, 0, localCap+8)
	for i := 0; i < localCap+8; i++ {
		bufs = append(bufs, l.Rent(256))
	}
	for _, b := range bufs {
		l.Release(b)
	}
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("InUse = %d after local releases", st.InUse)
	}
	// Local rents should drain the cache without touching new memory.
	before := a.Stats().PooledBytes
	for i := 0; i < localCap; i++ {
		b := l.Rent(256)
		defer l.Release(b)
	}
	if after := a.Stats().PooledBytes; after != before {
		t.Fatalf("local re-rent grew pool %d -> %d", before, after)
	}
}

// TestArenaConcurrentRentRelease is the race-pinned stress: goroutines
// hammer Rent/Retain/Release on the shared spine and through Locals,
// with cross-goroutine releases of owned chunks.
func TestArenaConcurrentRentRelease(t *testing.T) {
	a := New(Config{MaxBytes: 1 << 20})
	const workers = 8
	const iters = 2000
	handoff := make(chan *Buf, 64)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			l := a.NewLocal()
			for i := 0; i < iters; i++ {
				n := 64 << uint((i+w)%6)
				b := l.Rent(n)
				b.Data()[0] = byte(i)
				if i%7 == 0 {
					// Transfer ownership to another goroutine.
					b.Retain()
					select {
					case handoff <- b:
					default:
						b.Release()
					}
				}
				l.Release(b)
				select {
				case o := <-handoff:
					o.Release()
				default:
				}
			}
		}(w)
	}
	wg.Wait()
	close(handoff)
	for b := range handoff {
		b.Release()
	}
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("InUse = %d after stress, want 0", st.InUse)
	}
}

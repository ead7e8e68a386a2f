// Package arena provides a power-of-two size-class pool of recycled
// []byte chunks for the zero-alloc ingest path.
//
// The pool is organised as a shared "spine" (one mutex-guarded free
// list per size class) fronted by optional per-goroutine Local caches.
// Chunks are refcounted Bufs: the capture loop rents a chunk, fills it
// with a segment payload, and ownership transfers down the pipeline
// (dispatcher -> shard -> reassembler); whoever drops the last
// reference returns the chunk to the pool. A hard byte cap bounds the
// memory the arena will retain — rents beyond the cap are served by
// one-shot heap allocations ("overflow") that the GC reclaims, so the
// pipeline degrades to the old allocation behaviour instead of
// blocking. Gauges (chunks in use, peak, overflow count, pooled bytes)
// are exported for /metrics.
package arena

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// minClassBits..maxClassBits cover 64 B .. 1 MiB, matching the
	// serve wire format's MaxSegmentBytes upper bound.
	minClassBits = 6
	maxClassBits = 20
	numClasses   = maxClassBits - minClassBits + 1

	// MinChunk and MaxChunk bound the pooled chunk sizes. Rents
	// larger than MaxChunk always overflow to the heap.
	MinChunk = 1 << minClassBits
	MaxChunk = 1 << maxClassBits

	// DefaultMaxBytes caps the memory the default arena retains.
	DefaultMaxBytes = 64 << 20

	// localCap is the per-class Local cache depth; half is spilled
	// back to the spine when it fills.
	localCap = 32
)

// Config parameterises New.
type Config struct {
	// MaxBytes is the hard cap on bytes of pooled chunks the arena
	// will allocate and retain. 0 means DefaultMaxBytes.
	MaxBytes int64
}

// Arena is a refcounted, size-classed chunk pool. Safe for concurrent
// use by any number of goroutines.
type Arena struct {
	classes  [numClasses]class
	maxBytes int64

	pooledBytes atomic.Int64  // bytes of chunks allocated under the cap
	inUse       atomic.Int64  // rented and not yet fully released
	peak        atomic.Int64  // high-water mark of inUse
	overflows   atomic.Uint64 // rents served by one-shot heap allocs
}

type class struct {
	mu   sync.Mutex
	free []*Buf
}

// Buf is one refcounted chunk. The zero value is invalid; obtain Bufs
// from Arena.Rent or Local.Rent. Release may be called from any
// goroutine.
type Buf struct {
	a    *Arena
	data []byte
	cls  int32 // size-class index, -1 for overflow (heap) chunks
	refs atomic.Int32
}

// Data returns the chunk's full backing slice (len == capacity of the
// size class). Callers slice it down to the payload they filled.
func (b *Buf) Data() []byte { return b.data }

// Retain adds a reference. It panics if the buffer was already fully
// released — retaining a dead chunk is always a caller bug.
func (b *Buf) Retain() {
	if v := b.refs.Add(1); v <= 1 {
		panic(fmt.Sprintf("arena: Retain on released buffer (refs=%d)", v))
	}
}

// Release drops one reference; the last release returns the chunk to
// the pool. Releasing more times than the chunk was rented/retained
// panics.
func (b *Buf) Release() {
	v := b.refs.Add(-1)
	if v < 0 {
		panic(fmt.Sprintf("arena: double release (refs=%d)", v))
	}
	if v == 0 {
		b.a.reclaim(b, nil)
	}
}

// New builds an arena with the given config.
func New(cfg Config) *Arena {
	a := &Arena{maxBytes: cfg.MaxBytes}
	if a.maxBytes <= 0 {
		a.maxBytes = DefaultMaxBytes
	}
	return a
}

var (
	sharedOnce sync.Once
	sharedA    *Arena
)

// Shared returns the process-wide arena used by default throughout the
// ingest path (dispatcher defensive copies, serve frame reads, shard
// reassemblers).
func Shared() *Arena {
	sharedOnce.Do(func() { sharedA = New(Config{}) })
	return sharedA
}

// classFor returns the size-class index for an n-byte rent, or -1 when
// n exceeds MaxChunk and must overflow.
func classFor(n int) int {
	if n <= MinChunk {
		return 0
	}
	if n > MaxChunk {
		return -1
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// Rent returns a chunk with capacity >= n (n <= 0 rents the smallest
// class). The chunk starts with one reference.
func (a *Arena) Rent(n int) *Buf {
	cls := classFor(n)
	if cls < 0 {
		return a.overflow(n)
	}
	c := &a.classes[cls]
	c.mu.Lock()
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		c.mu.Unlock()
		b.refs.Store(1)
		a.noteRent()
		return b
	}
	c.mu.Unlock()
	return a.allocClass(cls)
}

// allocClass allocates a fresh pooled chunk for a class if the cap
// allows, else overflows.
func (a *Arena) allocClass(cls int) *Buf {
	size := int64(1) << (cls + minClassBits)
	for {
		cur := a.pooledBytes.Load()
		if cur+size > a.maxBytes {
			return a.overflow(int(size))
		}
		if a.pooledBytes.CompareAndSwap(cur, cur+size) {
			break
		}
	}
	b := &Buf{a: a, data: make([]byte, size), cls: int32(cls)}
	b.refs.Store(1)
	a.noteRent()
	return b
}

// overflow serves a rent with a one-shot heap chunk the GC reclaims.
func (a *Arena) overflow(n int) *Buf {
	if n < MinChunk {
		n = MinChunk
	}
	a.overflows.Add(1)
	b := &Buf{a: a, data: make([]byte, n), cls: -1}
	b.refs.Store(1)
	a.noteRent()
	return b
}

func (a *Arena) noteRent() {
	v := a.inUse.Add(1)
	for {
		p := a.peak.Load()
		if v <= p || a.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reclaim returns a dead chunk to the spine (or to l's cache when
// called from a Local). Overflow chunks are dropped for the GC.
func (a *Arena) reclaim(b *Buf, l *Local) {
	a.inUse.Add(-1)
	if b.cls < 0 {
		return
	}
	if l != nil {
		q := &l.cache[b.cls]
		if len(*q) < localCap {
			*q = append(*q, b)
			return
		}
		// Cache full: spill half back to the spine, keep the rest.
		spill := (*q)[localCap/2:]
		c := &a.classes[b.cls]
		c.mu.Lock()
		c.free = append(c.free, spill...)
		c.mu.Unlock()
		for i := range spill {
			spill[i] = nil
		}
		*q = append((*q)[:localCap/2], b)
		return
	}
	c := &a.classes[b.cls]
	c.mu.Lock()
	c.free = append(c.free, b)
	c.mu.Unlock()
}

// Stats is a point-in-time snapshot of the arena gauges.
type Stats struct {
	InUse       int64  // chunks rented and not yet released
	Peak        int64  // high-water mark of InUse
	PooledBytes int64  // bytes of chunks allocated under the cap
	Overflows   uint64 // rents served by one-shot heap allocations
}

// Stats returns the current gauge values.
func (a *Arena) Stats() Stats {
	return Stats{
		InUse:       a.inUse.Load(),
		Peak:        a.peak.Load(),
		PooledBytes: a.pooledBytes.Load(),
		Overflows:   a.overflows.Load(),
	}
}

// Local is a single-goroutine cache over the arena spine: rent and
// release hit a private free list and only touch the shared mutex on
// refill/spill. A Local must not be used concurrently; the Bufs it
// returns may still be released from any goroutine.
type Local struct {
	a     *Arena
	cache [numClasses][]*Buf
}

// NewLocal returns an empty per-goroutine cache over a.
func (a *Arena) NewLocal() *Local { return &Local{a: a} }

// Rent is Arena.Rent via the local cache.
func (l *Local) Rent(n int) *Buf {
	cls := classFor(n)
	if cls < 0 {
		return l.a.overflow(n)
	}
	q := &l.cache[cls]
	if k := len(*q); k > 0 {
		b := (*q)[k-1]
		(*q)[k-1] = nil
		*q = (*q)[:k-1]
		b.refs.Store(1)
		l.a.noteRent()
		return b
	}
	return l.a.Rent(n)
}

// Release drops one reference like Buf.Release, but a final release of
// a pooled chunk lands in the local cache instead of the spine. Only
// the Local's owner goroutine may call it.
func (l *Local) Release(b *Buf) {
	v := b.refs.Add(-1)
	if v < 0 {
		panic(fmt.Sprintf("arena: double release (refs=%d)", v))
	}
	if v == 0 {
		b.a.reclaim(b, l)
	}
}

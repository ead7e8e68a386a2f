package netsim

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// Closed-flow tombstones. A closed flow must be remembered until its
// idle timeout so late retransmits are dropped instead of being misread
// as a new stream, and a fast pipeline retires flows by the hundred
// thousand inside one timeout — so a tombstone has to be small and
// invisible to the collector. tombSet keeps each one as a 20-byte
// pointer-free entry (key, teardown time) in a close-ordered FIFO, plus
// 4 bytes in an open-addressed index of FIFO positions that answers "was
// this flow torn down?". The capture clock never runs backwards, so
// close order is expiry order and tombstones only ever leave from the
// front.

// tomb is one closed flow awaiting expiry. The teardown time is split in
// two words so the entry aligns to 4 bytes and packs to 20.
type tomb struct {
	key        FlowKey
	tsLo, tsHi uint32
}

func (t *tomb) ts() uint64 { return uint64(t.tsHi)<<32 | uint64(t.tsLo) }

const (
	// tombChunk (a power of two) is the FIFO's allocation unit, 20 KB of
	// entries: the queue holds what it stores plus at most one chunk of
	// slack, and gives chunks back as the front advances.
	tombChunkLog2 = 10
	tombChunk     = 1 << tombChunkLog2
	// tombMinIndex is the index's smallest size.
	tombMinIndex = 256
)

type tombSet struct {
	// chunks is the FIFO, oldest first; every chunk but the last is
	// full. The entry at chunks[c][i] has position base+c*tombChunk+i.
	chunks [][]tomb
	head   int    // offset of the oldest live entry in chunks[0]
	n      int    // live entries
	base   uint32 // position of chunks[0][0]
	next   uint32 // position the next push takes
	spare  []tomb // one emptied chunk, so steady churn allocates nothing

	// index is a linear-probing table of positions, stored +1 (0 marks an
	// empty slot); a power of two between a quarter and three quarters
	// full. Keys live in the FIFO only. The hash is seeded per set:
	// flow keys are attacker-chosen.
	index []uint32
	seed  maphash.Seed
}

func (s *tombSet) len() int { return s.n }

func (s *tombSet) at(pos uint32) *tomb {
	off := pos - s.base
	return &s.chunks[off>>tombChunkLog2][off&(tombChunk-1)]
}

func (s *tombSet) slot(k FlowKey) uint32 {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:], k.SrcIP)
	binary.LittleEndian.PutUint32(b[4:], k.DstIP)
	binary.LittleEndian.PutUint32(b[8:], uint32(k.SrcPort)<<16|uint32(k.DstPort))
	return uint32(maphash.Bytes(s.seed, b[:])) & uint32(len(s.index)-1)
}

// has reports whether k is tombstoned.
func (s *tombSet) has(k FlowKey) bool {
	if s.n == 0 {
		return false
	}
	mask := uint32(len(s.index) - 1)
	for i := s.slot(k); s.index[i] != 0; i = (i + 1) & mask {
		if s.at(s.index[i]-1).key == k {
			return true
		}
	}
	return false
}

// push tombstones k at teardown time ts; k must not be in the set.
func (s *tombSet) push(k FlowKey, ts uint64) {
	if s.index == nil {
		s.seed = maphash.MakeSeed()
		s.index = make([]uint32, tombMinIndex)
	}
	if s.next == math.MaxUint32 || (s.n+1)*4 > len(s.index)*3 {
		// Positions are about to wrap into the empty marker, or the index
		// passes three quarters full: renumber from the front, doubling
		// the index in the second case.
		size := len(s.index)
		if (s.n+1)*4 > size*3 {
			size *= 2
		}
		s.reindex(size)
	}
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == tombChunk {
		c := s.spare
		if s.spare = nil; c == nil {
			c = make([]tomb, 0, tombChunk)
		}
		s.chunks = append(s.chunks, c)
		last++
	}
	s.chunks[last] = append(s.chunks[last], tomb{key: k, tsLo: uint32(ts), tsHi: uint32(ts >> 32)})
	s.insert(s.next)
	s.next++
	s.n++
}

// insert files position pos in the index; there must be room.
func (s *tombSet) insert(pos uint32) {
	mask := uint32(len(s.index) - 1)
	i := s.slot(s.at(pos).key)
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = pos + 1
}

// reindex renumbers positions from the front chunk and rebuilds the
// index at the given size.
func (s *tombSet) reindex(size int) {
	if len(s.index) == size {
		clear(s.index)
	} else {
		s.index = make([]uint32, size)
	}
	s.base = 0
	s.next = uint32(s.head + s.n)
	for pos := uint32(s.head); pos < s.next; pos++ {
		s.insert(pos)
	}
}

// front returns the oldest tombstone; the set must be non-empty.
func (s *tombSet) front() *tomb { return &s.chunks[0][s.head] }

// pop drops the oldest tombstone.
func (s *tombSet) pop() {
	// Unfile it: find its slot, then close the probe chain behind it
	// (backward-shift deletion — no deleted markers to accumulate).
	pos := s.base + uint32(s.head)
	mask := uint32(len(s.index) - 1)
	i := s.slot(s.front().key)
	for s.index[i] != pos+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may move back to the hole at i unless its home
		// slot lies cyclically within (i, j].
		if home := s.slot(s.at(s.index[j] - 1).key); (j-home)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0

	s.n--
	if s.head++; s.head == len(s.chunks[0]) {
		// The front chunk is spent: keep it as the spare and close the
		// gap (one pointer move per chunk, once per tombChunk pops).
		s.spare = s.chunks[0][:0]
		s.chunks = s.chunks[:copy(s.chunks, s.chunks[1:])]
		s.head = 0
		s.base += tombChunk
		if len(s.chunks) == 0 {
			s.base, s.next = 0, 0
		}
	}
	if size := len(s.index); size > tombMinIndex && s.n*8 < size {
		s.reindex(size / 2) // under an eighth full: give half back
	}
}

package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"

	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/serve"
	"vpatch/internal/traffic"
)

// Wire-frame field offsets (serve/wire.go): u32 len | u32 srcIP |
// u32 dstIP | u16 srcPort | u16 dstPort | u32 seq | u64 ts | u8 flags.
const (
	frameHdr   = 4 + 25
	frameSrcIP = 4
	frameDstIP = 8
	frameTs    = 20
)

// unit is one delivery unit (segment) of the corpus, in send order.
type unit struct {
	flow int32
	// tail marks a unit of the flow that began in the previous pass:
	// flows straddle pass boundaries so that the number of open flows
	// and the spacing of flow starts stay constant from pass to pass.
	tail bool
	// canary marks the unit whose arrival completes the flow's canary
	// text: the unit the canary's due time is taken from.
	canary  bool
	off, n  int // frame bytes within corpus.wire
	payload int
}

// corpus is one workload's fixed, seeded segment set: flows cut into
// delivery units, scheduled cyclically, and pre-encoded as wire frames
// whose flow serial (dstIP) and timestamp are patched per pass.
//
// Sending N sets takes N+1 passes over units: pass 0 skips tail units,
// every pass p sends head units under serial base+p*flows+flow and
// tail units under the previous pass's serial, and the closing pass
// skips head units. Every flow is then delivered whole, N times over,
// under N distinct keys, so expected alerts = N x the one-set
// reference.
type corpus struct {
	units []unit
	wire  []byte
	keys  []netsim.FlowKey // per flow; DstIP carries the serial
	sent  []uint64         // per flow: payload bytes delivered, retransmits included

	flows       int
	streamBytes uint64 // unique payload bytes of one set
	hash        uint64
}

// buildCorpus generates w's corpus of flows flows from seed. attack is
// the pattern set whose members the traffic synthesizer embeds in a few
// sessions.
func buildCorpus(w *workload, flows int, seed int64, attack *patterns.Set) *corpus {
	stream := traffic.Synthesize(traffic.ISCXDay2, flows*w.flowBytes, seed, attack)
	streams := make([][]byte, flows)
	for i := range streams {
		payload := stream[i*w.flowBytes : (i+1)*w.flowBytes]
		copy(payload, canaryText)
		if i%100 == 50 {
			site := payload[len(payload)/2:]
			n := copy(site, pcreAnchor(i/100%pcreRules))
			tail := "zzzz" // rejects at the first DFA step
			if i/100%2 == 0 {
				tail = "beef" // verifies
			}
			copy(site[n:], tail)
		}
		streams[i] = payload
	}
	return assemble(w, streams, seed)
}

// assemble cuts each flow's stream into w's delivery units, schedules
// the units cyclically and encodes them.
func assemble(w *workload, streams [][]byte, seed int64) *corpus {
	flows := len(streams)
	rng := rand.New(rand.NewSource(seed ^ 0x6b657973))
	c := &corpus{flows: flows, keys: make([]netsim.FlowKey, flows), sent: make([]uint64, flows)}

	type sched struct {
		t     float64
		flow  int32
		idx   int
		chunk traffic.Chunk
		tail  bool
		mark  bool
	}
	var order []sched
	span := float64(min(w.concurrent, flows)) / float64(flows) // a flow's share of the pass
	for i, payload := range streams {
		c.streamBytes += uint64(len(payload))
		// netsim.FlowKey.Hash is FNV-1a, whose low bit is the XOR of the
		// key bytes' low bits: sequential addresses and ports put every
		// flow on one shard of two. Seeded random ones do not.
		c.keys[i] = netsim.FlowKey{SrcIP: rng.Uint32(), SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 80}
		var chunks []traffic.Chunk
		if w.reorder {
			fseed := seed + int64(i)
			chunks = traffic.Shuffled(traffic.Overlapped(payload, w.segBytes, 64, fseed), 8, 0.05, fseed)
		} else {
			chunks = traffic.TinyMTU(payload, w.segBytes)
		}
		mark := canaryUnit(chunks, len(canaryText))
		for j, ch := range chunks {
			c.sent[i] += uint64(len(ch.Data))
			t := float64(i)/float64(flows) + float64(j)/float64(len(chunks))*span
			s := sched{t: t, flow: int32(i), idx: j, chunk: ch, mark: j == mark}
			if t >= 1 {
				s.t, s.tail = t-1, true
			}
			order = append(order, s)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &order[a], &order[b]
		if x.t != y.t {
			return x.t < y.t
		}
		if x.flow != y.flow {
			return x.flow < y.flow
		}
		return x.idx < y.idx
	})

	c.units = make([]unit, len(order))
	for i, s := range order {
		seg := netsim.Segment{Flow: c.keys[s.flow], Seq: uint32(s.chunk.Off), Payload: s.chunk.Data}
		if s.chunk.Fin {
			seg.Flags = netsim.FlagFIN
		}
		off := len(c.wire)
		c.wire = serve.AppendSegment(c.wire, seg)
		c.units[i] = unit{flow: s.flow, tail: s.tail, canary: s.mark,
			off: off, n: len(c.wire) - off, payload: len(s.chunk.Data)}
	}
	h := fnv.New64a()
	h.Write(c.wire)
	c.hash = h.Sum64()
	return c
}

// canaryUnit returns the index of the delivery unit after which the
// first n stream bytes have all been sent.
func canaryUnit(chunks []traffic.Chunk, n int) int {
	covered := make([]bool, n)
	left := n
	for j, ch := range chunks {
		for k := max(ch.Off, 0); k < ch.Off+int64(len(ch.Data)) && k < int64(n); k++ {
			if !covered[k] {
				covered[k] = true
				left--
			}
		}
		if left == 0 {
			return j
		}
	}
	return len(chunks) - 1
}

// key returns flow f's key in the set numbered set of a phase whose
// serials start at base. The serial makes the key unique; the source
// address is re-mixed per set, so that which shard a flow lands on is
// drawn afresh each set and a phase's shard imbalance averages over its
// sets instead of being fixed by the seed.
func (c *corpus) key(f, set int, base uint32) netsim.FlowKey {
	k := c.keys[f]
	k.SrcIP = mix32(k.SrcIP + uint32(set))
	k.DstIP = base + uint32(set*c.flows+f)
	return k
}

func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	return x ^ x>>16
}

// patch stamps u's frame with its flow's key for this set and the
// capture timestamp.
func (c *corpus) patch(u *unit, k netsim.FlowKey, tsMicros uint64) {
	binary.BigEndian.PutUint32(c.wire[u.off+frameSrcIP:], k.SrcIP)
	binary.BigEndian.PutUint32(c.wire[u.off+frameDstIP:], k.DstIP)
	binary.BigEndian.PutUint64(c.wire[u.off+frameTs:], tsMicros)
}

// oneSet returns the segments of exactly one set (set 0 of a phase at
// base) in the order the server receives them when one set is sent:
// head units, then tail units. Payloads alias the corpus.
func (c *corpus) oneSet(base uint32) []netsim.Segment {
	segs := make([]netsim.Segment, 0, len(c.units))
	for _, tail := range []bool{false, true} {
		for i := range c.units {
			u := &c.units[i]
			if u.tail != tail {
				continue
			}
			f := c.wire[u.off : u.off+u.n]
			segs = append(segs, netsim.Segment{
				Flow: c.key(int(u.flow), 0, base), Seq: binary.BigEndian.Uint32(f[16:]),
				TsMicros: 1_000_000, Flags: f[28], Payload: f[frameHdr:],
			})
		}
	}
	return segs
}

// imbalance returns max shard bytes over mean shard bytes for one set:
// the dispatcher partitions by FlowKey.Hash() % shards, and the slowest
// shard sets the rate.
func (c *corpus) imbalance(set int, base uint32) float64 {
	var per [shards]uint64
	var sum, peak uint64
	for f := range c.keys {
		per[c.key(f, set, base).Hash()%shards] += c.sent[f]
	}
	for _, b := range per {
		sum += b
		peak = max(peak, b)
	}
	return float64(peak) * shards / float64(sum)
}

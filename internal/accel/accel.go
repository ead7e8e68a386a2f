// Package accel derives skip-loop acceleration tables from the
// cache-resident filters of S-PATCH and V-PATCH.
//
// The paper's filtering loops pay one table probe and two branches for
// every input byte even when the traffic is overwhelmingly innocent.
// Production engines in the same lineage (Hyperscan-class acceleration
// over DFC-style filters) first *skip* runs of impossible bytes and only
// then fall into the probe chain. This package owns the compile-time
// side of that idea:
//
//   - a 256-entry "can this byte start a candidate window?" bitmap with
//     its density and rare-byte list — when at most two byte values can
//     start a candidate, the runtime's assembly-backed bytes.IndexByte
//     is the skip primitive (ModeIndexByte);
//   - an 8 KB *window* viability bitmap (one bit per 2-byte window,
//     the union of the filter-1/filter-2 start windows) — small enough
//     to stay L1-resident next to the input, unlike the 64 KB merged
//     filter the probe chain reads, so a tight branchless bitmap loop
//     can classify positions at several times probe speed (ModeWindow);
//   - the density accounting that decides, at compile time, whether
//     acceleration can pay at all (ModeOff above the break-even
//     density), and the span constants of the runtime governor that
//     turns it off mid-scan when the traffic itself is dense.
//
// Tables are cheap to build: one pass over the 1024 words of the window
// bitmap, derived from the filters at compile time.
//
// The hot skip loop itself lives next to its probe chains in
// internal/core (it must inline into the fused kernels); this package
// provides the tables, the mode decision, and the two skip primitives
// (Extract for the window bitmap, Next for index-byte mode). DFC, the
// paper's baseline, and the lane-exact renditions of Algorithms 1 and 2
// have no skip loop.
package accel

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Mode selects the skip primitive a scan loop should use.
type Mode uint8

const (
	// ModeOff: the viable-window density is above break-even;
	// acceleration would cost more than the probes it saves. Loops run
	// their plain probe chain.
	ModeOff Mode = iota
	// ModeIndexByte: at most MaxRareBytes byte values can start a
	// candidate window; skip with bytes.IndexByte over the rare list.
	ModeIndexByte
	// ModeWindow: skip with the branchless window-bitmap loop.
	ModeWindow
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeIndexByte:
		return "index-byte"
	case ModeWindow:
		return "window-bitmap"
	}
	return "mode(?)"
}

// MaxRareBytes is the largest start-byte set bytes.IndexByte skipping
// handles; beyond it the window bitmap takes over.
const MaxRareBytes = 2

// MaxWindowDensity is the compile-time break-even: when more than this
// fraction of 2-byte windows is viable, even the L1-resident bitmap
// loop cannot beat the probe chain it guards (the BenchmarkAccel*
// benchmarks locate the crossover empirically; see the README's
// performance guide) and the table compiles to ModeOff.
const MaxWindowDensity = 0.35

// Runtime governor constants, shared by every accelerated loop: scans
// try acceleration for SpanBytes at a time; when a span's viable
// fraction crosses the mode's break-even, the next PlainBytes run the
// plain kernel before acceleration is retried. This bounds pathological
// overhead to the accelerated span fraction (~2 KB in 32 KB ≈ a few
// percent) while re-engaging quickly when a flow turns clean.
const (
	SpanBytes  = 2 << 10
	PlainBytes = 30 << 10
)

// KeepAccel reports whether a window-bitmap span with `viable` viable
// positions out of `span` scanned ones was worth accelerating. The
// branchless extract-and-drain degrades gracefully — measured at or
// above the plain kernel even on 100%-match traffic — so the window
// governor only trips as a safety valve on extreme density (> 3/4
// viable).
func KeepAccel(viable, span int) bool { return viable*4 <= span*3 }

// KeepAccelIndex is the index-byte governor: bytes.IndexByte skipping
// collapses to a function call per position once hits are frequent, so
// it disables at 1/3 viable already.
func KeepAccelIndex(viable, span int) bool { return viable*3 <= span }

// Table is the compiled acceleration state for one filter stage. All
// fields are read-only after BuildUnion; one Table serves any number of
// concurrent scans.
type Table struct {
	// Union is the window viability bitmap: bit idx is set when the
	// little-endian 2-byte window idx may start a candidate (the union
	// of every filter consulted at the loop head). 8 KB; the hot loops
	// index it as Union[w>>6]>>(w&63).
	Union [1 << 10]uint64

	// StartBytes is the 256-entry start-byte bitmap: bit b is set when
	// some window starting with byte b is viable.
	StartBytes [4]uint64

	// Rare lists the viable start bytes when there are at most
	// MaxRareBytes of them (ModeIndexByte); nil otherwise.
	Rare []byte

	// Density is the viable fraction of the 2^16 window space — the
	// expected viable-position rate on uniform traffic. ByteDensity is
	// the same over the 256 start-byte values.
	Density     float64
	ByteDensity float64

	nStartBytes int
	mode        Mode
}

// BuildUnion derives the acceleration table from the window viability
// bitmap itself (bit idx set when 2-byte window idx may start a
// candidate), word by word: window idx = first | second<<8 sits in word
// idx>>6, so a word's 64 bits are 64 consecutive first-byte values
// (quarter k&3 of the start-byte bitmap) of the single second byte k>>2.
func BuildUnion(union *[1 << 10]uint64) *Table {
	t := &Table{Union: *union}
	set := 0
	for k, w := range union {
		if w == 0 {
			continue
		}
		set += bits.OnesCount64(w)
		t.StartBytes[k&3] |= w
	}
	nBytes := 0
	for _, w := range t.StartBytes {
		nBytes += bits.OnesCount64(w)
	}
	t.Density = float64(set) / (1 << 16)
	t.ByteDensity = float64(nBytes) / 256
	t.nStartBytes = nBytes
	switch {
	case nBytes <= MaxRareBytes:
		t.mode = ModeIndexByte
		for b := 0; b < 256; b++ {
			if t.ViableByte(byte(b)) {
				t.Rare = append(t.Rare, byte(b))
			}
		}
	case t.Density <= MaxWindowDensity:
		t.mode = ModeWindow
	default:
		t.mode = ModeOff
	}
	return t
}

// Mode returns the selected skip primitive.
func (t *Table) Mode() Mode { return t.mode }

// Enabled reports whether acceleration is worth engaging at all.
func (t *Table) Enabled() bool { return t.mode != ModeOff }

// ViableWindow reports whether 2-byte window idx may start a candidate.
func (t *Table) ViableWindow(idx uint32) bool {
	idx &= 0xffff
	return t.Union[(idx>>6)&1023]&(1<<(idx&63)) != 0
}

// ViableByte reports whether some viable window starts with byte b.
func (t *Table) ViableByte(b byte) bool {
	return t.StartBytes[b>>6]&(1<<(b&63)) != 0
}

// Next returns the smallest position p in [i, end) whose first byte is
// in the rare list (a superset of window viability, so skipping to it is
// exact), or end if there is none. It is the index-byte skip primitive
// (ModeIndexByte tables only), built on the runtime's vectorized
// bytes.IndexByte. Each later rare byte only searches up to the best hit
// so far, so a dense first byte cannot make the absent second one rescan
// the whole segment.
func (t *Table) Next(input []byte, i, end int) int {
	if i >= end {
		return end
	}
	seg := input[i:end]
	best := -1
	for _, b := range t.Rare {
		if j := bytes.IndexByte(seg, b); j >= 0 {
			best = j
			seg = seg[:j]
		}
	}
	if best < 0 {
		return end
	}
	return i + best
}

// QueueLen sizes the viable-position queue the window-bitmap skip
// compacts into (2 KB: L1-resident next to the 8 KB union bitmap).
// QueueMask makes queue stores provably in bounds for the compiler.
const (
	QueueLen  = 512
	QueueMask = QueueLen - 1
)

// Extract is the branchless window-bitmap skip loop: it scans 5-position
// packs (one 8-byte load each) starting at i for as long as i <= limit,
// classifying every position against the union bitmap and compacting the
// viable ones into q with prefix-sum stores — the miss path is pure
// straight-line code with no data-dependent branch at all. Returns the
// new position and queue length. The caller sizes each burst so neither
// the queue (room for 5 stores per pack above w) nor its bookkeeping can
// overflow: limit is the last allowed pack start and must satisfy
// limit+8 <= len(input) and 5*packs <= QueueLen-5-w.
func (t *Table) Extract(input []byte, i, limit int, q *[QueueLen]int32, w int) (int, int) {
	u := &t.Union
	for ; i <= limit; i += 5 {
		v := binary.LittleEndian.Uint64(input[i:])
		w0 := uint16(v)
		w1 := uint16(v >> 8)
		w2 := uint16(v >> 16)
		w3 := uint16(v >> 24)
		w4 := uint16(v >> 32)
		c0 := int((u[(w0>>6)&1023] >> (w0 & 63)) & 1)
		c1 := int((u[(w1>>6)&1023] >> (w1 & 63)) & 1)
		c2 := int((u[(w2>>6)&1023] >> (w2 & 63)) & 1)
		c3 := int((u[(w3>>6)&1023] >> (w3 & 63)) & 1)
		c4 := int((u[(w4>>6)&1023] >> (w4 & 63)) & 1)
		q[w&QueueMask] = int32(i)
		w += c0
		q[w&QueueMask] = int32(i + 1)
		w += c1
		q[w&QueueMask] = int32(i + 2)
		w += c2
		q[w&QueueMask] = int32(i + 3)
		w += c3
		q[w&QueueMask] = int32(i + 4)
		w += c4
	}
	return i, w
}

// Info is the reporting view of a table, surfaced through the public
// Engine.Info.
type Info struct {
	// Mode is the selected skip primitive ("off", "index-byte",
	// "window-bitmap").
	Mode string
	// Enabled mirrors Table.Enabled.
	Enabled bool
	// WindowDensity is the viable fraction of the 2^16 window space;
	// ByteDensity the viable fraction of the 256 start-byte values.
	WindowDensity float64
	ByteDensity   float64
	// StartBytes counts the viable start-byte values; RareBytes lists
	// them when ModeIndexByte selected (nil otherwise).
	StartBytes int
	RareBytes  []byte
}

// Info summarizes the table.
func (t *Table) Info() Info {
	return Info{
		Mode:          t.mode.String(),
		Enabled:       t.Enabled(),
		WindowDensity: t.Density,
		ByteDensity:   t.ByteDensity,
		StartBytes:    t.nStartBytes,
		RareBytes:     append([]byte(nil), t.Rare...),
	}
}

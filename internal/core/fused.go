package core

import (
	"encoding/binary"

	"vpatch/internal/accel"
	"vpatch/internal/bitarr"
	"vpatch/internal/metrics"
	"vpatch/internal/vec"
)

// The fused production kernels of the filtering round, shared by the
// serial scan, FilterOnly and the batch scan. Every scan in the paper
// configuration executes these, with or without counters attached; the
// lane-exact renditions of Algorithms 1 and 2, which have no skip loop,
// run only on request (Counters.LaneExact) or under an ablation only
// they express. Candidate output is bit-identical either way
// (property-tested against lane-exact scans).
//
// Counters cost nothing here: the kernels take c only to add the
// governor's per-span skip tallies once per range (skipTally.addTo) —
// no loop below increments a counter per position, per pack or per
// queue entry.
//
// Two layers compose here:
//
//   - The *plain* kernels restate the probe chain as SWAR-friendly
//     code: one binary.LittleEndian.Uint64 load feeds the window
//     formations of 5 consecutive positions (both the 2-byte filter
//     index and the 4-byte filter-3 value of positions i..i+4 are
//     shifts of the same register), slice headers are hoisted to
//     fixed-size array pointers, and indexes are masked so the
//     compiler can prove them in bounds (audited with
//     -d=ssa/check_bce; see the note at the bottom of this file).
//
//   - The *accelerated* kernels put a skip loop in front of the probe
//     chain, driven by the accel.Table derived from the merged
//     filter-1/2 state at compile time. In window-bitmap mode the skip
//     is branchless: each 8-byte register yields 5 viability bits from
//     the L1-resident union bitmap (the probe chain's own 64 KB merged
//     table thrashes L1; the 8 KB union bitmap does not), and viable
//     positions are compacted into a small scratch-resident queue with
//     prefix-sum stores — no data-dependent branch on the miss path at
//     all — then drained through the probe chain at a cache-sized
//     watermark. In index-byte mode (<= 2 possible start bytes) the
//     skip is the runtime's assembly-backed bytes.IndexByte. A
//     checkpoint governor (accel.SpanBytes/PlainBytes) measures the
//     viable fraction per span and drops to the plain kernel when the
//     traffic is too dense for skipping to pay, so match-heavy input
//     costs at most a few percent over the plain path.
//
// V-PATCH (merged-filter word fetch) and S-PATCH (split filter-1/
// filter-2 probes) differ in the probe chain and in nothing else
// (Alg. 2 vs Alg. 1), so the skip/burst/governor skeleton below exists
// once. common.split — set from the algorithm at construction, never a
// knob — picks the rendition in plainRange and drain: once per range or
// per queue drain (<= accel.QueueLen positions), never per position.
// The probe bodies themselves (probe/plainRange/drain x Merged/Split)
// stay separate straight-line code.

// mergedWords returns the merged filter storage as a fixed-size array
// pointer: the 2^16-bit direct-filter domain always interleaves into
// exactly 8192 words, and the fixed size lets the compiler drop bounds
// checks for idx&0xffff-derived indexes.
func (m *common) mergedWords() *[8192]uint16 {
	return (*[8192]uint16)(m.fs.Merged.Words())
}

// filterBytes converts an 8 KB direct-filter byte array likewise.
func filterBytes(b []byte) *[8192]byte { return (*[8192]byte)(b) }

// buildAccel derives the acceleration table from the merged filter-1/2
// state at compile time.
func (m *common) buildAccel() {
	// A merged word holds filter 1's bits for 8 consecutive windows in
	// its low byte and filter 2's in its high byte; their OR is one byte
	// of the union bitmap.
	var union [1 << 10]uint64
	for j, w := range m.mergedWords() {
		union[j>>3] |= uint64(uint8(w|w>>8)) << (8 * (j & 7))
	}
	m.accel = accel.BuildUnion(&union)
}

// setKernel resolves the extract-loop kernel once, at compile time: the
// CPUID-gated dispatch of the native kernels. The choice is host state,
// made again on whichever host compiles or loads the engine.
func (m *common) setKernel(force vec.KernelID) {
	m.kern = accel.SelectKernel(force)
	m.kblock, m.klook = accel.Geometry(m.kern)
}

// KernelInfo reports the resolved extract kernel
// (engine.KernelReporter).
func (m *common) KernelInfo() string { return m.kern.String() }

// AccelInfo reports the engine's acceleration configuration
// (engine.AccelReporter).
func (m *common) AccelInfo() accel.Info {
	if m.accel == nil {
		return accel.Info{Mode: "off"}
	}
	inf := m.accel.Info()
	if m.noAccel {
		inf.Enabled = false
		inf.Mode = "off"
	}
	return inf
}

// accelOn reports whether the fused kernels should use the skip loop.
func (m *common) accelOn() bool {
	return m.accel != nil && !m.noAccel && m.accel.Enabled()
}

// skipTally is what one accelerated range tells the counters: positions
// cleared without probing, governor spans scanned, and spans whose
// viable fraction kept the skip loop engaged. The range functions keep
// it in locals, updated at span boundaries only.
type skipTally struct {
	skipped, spans, kept int
}

// span records one governor span of n accelerated bytes, viable of which
// reached the probe chain.
func (t *skipTally) span(viable, n int, keep bool) {
	t.skipped += n - viable
	t.spans++
	if keep {
		t.kept++
	}
}

func (t *skipTally) addTo(c *metrics.Counters) {
	if c != nil {
		c.SkippedBytes += uint64(t.skipped)
		c.AccelChances += uint64(t.spans)
		c.AccelRuns += uint64(t.kept)
	}
}

// probeMerged runs the V-PATCH probe chain for one position with a full
// 4-byte window in range (p <= len(input)-4): merged filter-1/2 word
// fetch, speculative hashed filter-3 probe.
func (m *common) probeMerged(scr *Scratch, input []byte, p int, stores bool) {
	words := m.mergedWords()
	f3 := m.fs.Filter3.Bytes()
	f3mask := uint32(len(f3) - 1)
	shift := m.fs.Filter3.Shift()
	v4 := binary.LittleEndian.Uint32(input[p:])
	idx := v4 & 0xffff
	wd := words[(idx>>3)&8191]
	bit := idx & 7
	if wd&(1<<bit) != 0 {
		if stores {
			scr.aShort = append(scr.aShort, int32(p))
		} else {
			scr.sink ^= uint32(p)
		}
	}
	if wd&(1<<(bit+8)) != 0 {
		key := (v4 * bitarr.MulHashConst) >> shift
		if f3[(key>>3)&f3mask]&(1<<(key&7)) != 0 {
			if stores {
				scr.aLong = append(scr.aLong, int32(p))
			} else {
				scr.sink ^= uint32(p) << 8
			}
		}
	}
}

// probeSplit is the S-PATCH rendition: separate filter-1 and filter-2
// byte probes (the scalar algorithm performs two lookups per position;
// merging them is V-PATCH's optimization and would quietly change what
// the S-PATCH figures measure).
func (m *common) probeSplit(scr *Scratch, input []byte, p int) {
	f1 := filterBytes(m.fs.Filter1.Bytes())
	f2 := filterBytes(m.fs.Filter2.Bytes())
	f3 := m.fs.Filter3.Bytes()
	f3mask := uint32(len(f3) - 1)
	shift := m.fs.Filter3.Shift()
	v4 := binary.LittleEndian.Uint32(input[p:])
	idx := v4 & 0xffff
	bit := idx & 7
	if f1[(idx>>3)&8191]&(1<<bit) != 0 {
		scr.aShort = append(scr.aShort, int32(p))
	}
	if f2[(idx>>3)&8191]&(1<<bit) != 0 {
		key := (v4 * bitarr.MulHashConst) >> shift
		if f3[(key>>3)&f3mask]&(1<<(key&7)) != 0 {
			scr.aLong = append(scr.aLong, int32(p))
		}
	}
}

// fusedRange is the fused filtering round over positions [start, end):
// skip loop (when profitable), SWAR probe chain, scalar tail for the
// final sub-window positions. Reads may extend up to 3 bytes past end
// (within input), exactly like the scalar algorithm. S-PATCH has no
// no-store measurement mode and always passes stores=true.
func (m *common) fusedRange(scr *Scratch, input []byte, start, end int, c *metrics.Counters, stores bool) {
	n := len(input)
	mainEnd := end
	if n-3 < mainEnd {
		mainEnd = n - 3 // positions with a full 4-byte window in range
	}
	if mainEnd < start {
		mainEnd = start
	}
	i := start
	if m.accelOn() {
		if m.accel.Mode() == accel.ModeIndexByte {
			m.accelIndexRange(scr, input, i, mainEnd, c, stores)
		} else {
			m.accelWindowRange(scr, input, i, mainEnd, c, stores)
		}
	} else {
		m.plainRange(scr, input, i, mainEnd, stores)
	}
	// Positions with fewer than 4 bytes left: scalar chain with guards.
	for i = mainEnd; i < end; i++ {
		m.scalarFilterPos(scr, input, i, n, nil)
	}
}

// plainRange runs the engine's unaccelerated probe loop over [i, end),
// end <= len(input)-3.
func (m *common) plainRange(scr *Scratch, input []byte, i, end int, stores bool) {
	if m.split {
		m.plainRangeSplit(scr, input, i, end)
	} else {
		m.plainRangeMerged(scr, input, i, end, stores)
	}
}

// drain replays queued viable positions through the engine's probe
// chain, in position order.
func (m *common) drain(scr *Scratch, input []byte, q []int32, stores bool) {
	if m.split {
		m.drainSplit(scr, input, q)
	} else {
		m.drainMerged(scr, input, q, stores)
	}
}

// plainRangeMerged is the unaccelerated V-PATCH probe loop over
// [i, end), end <= len(input)-3: one 8-byte load feeds the window
// formations of 5 consecutive positions.
func (m *common) plainRangeMerged(scr *Scratch, input []byte, i, end int, stores bool) {
	words := m.mergedWords()
	f3 := m.fs.Filter3.Bytes()
	f3mask := uint32(len(f3) - 1)
	shift := m.fs.Filter3.Shift()
	packEnd := end - 5
	if lim := len(input) - 8; lim < packEnd {
		packEnd = lim
	}
	for ; i <= packEnd; i += 5 {
		v := binary.LittleEndian.Uint64(input[i:])
		idx := uint32(v) & 0xffff
		wd := words[(idx>>3)&8191]
		bit := idx & 7
		if wd&(1<<bit) != 0 {
			if stores {
				scr.aShort = append(scr.aShort, int32(i))
			} else {
				scr.sink ^= uint32(i)
			}
		}
		if wd&(1<<(bit+8)) != 0 {
			key := (uint32(v) * bitarr.MulHashConst) >> shift
			if f3[(key>>3)&f3mask]&(1<<(key&7)) != 0 {
				if stores {
					scr.aLong = append(scr.aLong, int32(i))
				} else {
					scr.sink ^= uint32(i) << 8
				}
			}
		}
		idx = uint32(v>>8) & 0xffff
		wd = words[(idx>>3)&8191]
		bit = idx & 7
		if wd&(1<<bit) != 0 {
			if stores {
				scr.aShort = append(scr.aShort, int32(i+1))
			} else {
				scr.sink ^= uint32(i + 1)
			}
		}
		if wd&(1<<(bit+8)) != 0 {
			key := (uint32(v>>8) * bitarr.MulHashConst) >> shift
			if f3[(key>>3)&f3mask]&(1<<(key&7)) != 0 {
				if stores {
					scr.aLong = append(scr.aLong, int32(i+1))
				} else {
					scr.sink ^= uint32(i+1) << 8
				}
			}
		}
		idx = uint32(v>>16) & 0xffff
		wd = words[(idx>>3)&8191]
		bit = idx & 7
		if wd&(1<<bit) != 0 {
			if stores {
				scr.aShort = append(scr.aShort, int32(i+2))
			} else {
				scr.sink ^= uint32(i + 2)
			}
		}
		if wd&(1<<(bit+8)) != 0 {
			key := (uint32(v>>16) * bitarr.MulHashConst) >> shift
			if f3[(key>>3)&f3mask]&(1<<(key&7)) != 0 {
				if stores {
					scr.aLong = append(scr.aLong, int32(i+2))
				} else {
					scr.sink ^= uint32(i+2) << 8
				}
			}
		}
		idx = uint32(v>>24) & 0xffff
		wd = words[(idx>>3)&8191]
		bit = idx & 7
		if wd&(1<<bit) != 0 {
			if stores {
				scr.aShort = append(scr.aShort, int32(i+3))
			} else {
				scr.sink ^= uint32(i + 3)
			}
		}
		if wd&(1<<(bit+8)) != 0 {
			key := (uint32(v>>24) * bitarr.MulHashConst) >> shift
			if f3[(key>>3)&f3mask]&(1<<(key&7)) != 0 {
				if stores {
					scr.aLong = append(scr.aLong, int32(i+3))
				} else {
					scr.sink ^= uint32(i+3) << 8
				}
			}
		}
		idx = uint32(v>>32) & 0xffff
		wd = words[(idx>>3)&8191]
		bit = idx & 7
		if wd&(1<<bit) != 0 {
			if stores {
				scr.aShort = append(scr.aShort, int32(i+4))
			} else {
				scr.sink ^= uint32(i + 4)
			}
		}
		if wd&(1<<(bit+8)) != 0 {
			key := (uint32(v>>32) * bitarr.MulHashConst) >> shift
			if f3[(key>>3)&f3mask]&(1<<(key&7)) != 0 {
				if stores {
					scr.aLong = append(scr.aLong, int32(i+4))
				} else {
					scr.sink ^= uint32(i+4) << 8
				}
			}
		}
	}
	for ; i < end; i++ {
		m.probeMerged(scr, input, i, stores)
	}
}

// accelWindowRange processes [start, mainEnd) with the branchless
// window-bitmap skip: the resolved kernel (accel.ExtractKernel — the
// AVX2 classifier on capable hosts, the SWAR pack loop otherwise)
// compacts viable positions into the scratch queue, and the probe chain
// drains it at the queue watermark. The loop runs in *bursts* sized so
// that neither the queue (block stores per step) nor the governor
// checkpoint can trip inside one — the burst interior has no
// data-dependent branches at all. A checkpoint every accel.SpanBytes
// evaluates the viable fraction and falls back to the plain kernel for
// accel.PlainBytes when skipping stops paying. When a wide kernel runs
// out of full blocks (or read lookahead), a second pass sweeps the
// remainder with SWAR geometry over the same queue and governor state,
// so short buffers and range tails cost exactly what they did before
// the native kernels existed. mainEnd <= len(input)-3.
func (m *common) accelWindowRange(scr *Scratch, input []byte, start, mainEnd int, c *metrics.Counters, stores bool) {
	t := m.accel
	q := &scr.aq
	w := 0
	i := start
	checkAt := i + accel.SpanBytes
	spanStart := i
	drained := 0 // viable positions drained since spanStart
	carry := 0   // queue entries a span inherited (the tally's correction)
	var tally skipTally
	kern, blk, look := m.kern, m.kblock, m.klook
	for {
		packEnd := mainEnd - blk
		if lim := len(input) - look; lim < packEnd {
			packEnd = lim
		}
		for i <= packEnd {
			// Bound the burst by queue room (blk stores per block) and
			// the governor checkpoint.
			room := (accel.QueueLen - blk - w) / blk // blocks until possible overflow
			if room == 0 {
				drained += w
				m.drain(scr, input, q[:w], stores)
				w = 0
				continue
			}
			// limit is the last allowed block start: capped by queue
			// room, the range end, and the checkpoint (a block may start
			// at checkAt, so i always crosses it — forward progress).
			limit := i + (room-1)*blk
			if packEnd < limit {
				limit = packEnd
			}
			if checkAt < limit {
				limit = checkAt
			}
			i, w = t.ExtractKernel(kern, input, i, limit, q, w)
			if w >= accel.QueueLen-blk {
				drained += w
				m.drain(scr, input, q[:w], stores)
				w = 0
			}
			if i >= checkAt {
				// Governor checkpoint: the queue content counts toward
				// the span's viable positions without being drained (it
				// carries across accelerated spans).
				keep := accel.KeepAccel(drained+w, i-spanStart)
				tally.span(drained+w-carry, i-spanStart, keep)
				if !keep {
					drained += w
					m.drain(scr, input, q[:w], stores)
					w = 0
					plainEnd := i + accel.PlainBytes
					if plainEnd > mainEnd {
						plainEnd = mainEnd
					}
					m.plainRange(scr, input, i, plainEnd, stores)
					i = plainEnd
				}
				spanStart = i
				drained = 0
				carry = w
				checkAt = i + accel.SpanBytes
			}
		}
		if kern == vec.KernelSWAR {
			break
		}
		kern, blk, look = vec.KernelSWAR, 5, 8 // SWAR finish pass
	}
	if i > spanStart {
		// The range's last, partial span.
		tally.span(drained+w-carry, i-spanStart, accel.KeepAccel(drained+w, i-spanStart))
	}
	tally.addTo(c)
	m.drain(scr, input, q[:w], stores)
	// Remainder: fewer than 8 loadable bytes left, so plainRange has no
	// full pack and probes per position.
	m.plainRange(scr, input, i, mainEnd, stores)
}

// accelIndexRange processes [start, mainEnd) with bytes.IndexByte
// skipping over the rare start-byte list, with the same governor. Hits
// funnel through the queue and the table-hoisted drain (position order
// preserved) instead of paying per-position table setup.
// mainEnd <= len(input)-3.
func (m *common) accelIndexRange(scr *Scratch, input []byte, start, mainEnd int, c *metrics.Counters, stores bool) {
	t := m.accel
	q := &scr.aq
	i := start
	var tally skipTally
	for i < mainEnd {
		spanEnd := i + accel.SpanBytes
		if spanEnd > mainEnd {
			spanEnd = mainEnd
		}
		spanLen := spanEnd - i
		viable := 0
		w := 0
		for i < spanEnd {
			j := t.Next(input, i, spanEnd)
			i = j
			if i >= spanEnd {
				break
			}
			viable++
			q[w&accel.QueueMask] = int32(i)
			w++
			if w >= accel.QueueLen {
				m.drain(scr, input, q[:w], stores)
				w = 0
			}
			i++
		}
		m.drain(scr, input, q[:w], stores)
		keep := accel.KeepAccelIndex(viable, spanLen)
		tally.span(viable, spanLen, keep)
		if !keep {
			plainEnd := i + accel.PlainBytes
			if plainEnd > mainEnd {
				plainEnd = mainEnd
			}
			m.plainRange(scr, input, i, plainEnd, stores)
			i = plainEnd
		}
	}
	tally.addTo(c)
}

// drainMerged replays queued viable positions through the V-PATCH probe
// chain, in position order. One 4-byte load per position serves both
// window formations; filter 3 is only consulted behind the filter-2
// bit, exactly like the plain chain.
func (m *common) drainMerged(scr *Scratch, input []byte, q []int32, stores bool) {
	words := m.mergedWords()
	f3 := m.fs.Filter3.Bytes()
	f3mask := uint32(len(f3) - 1)
	shift := m.fs.Filter3.Shift()
	for _, p := range q {
		pp := int(p)
		v4 := binary.LittleEndian.Uint32(input[pp:])
		idx := v4 & 0xffff
		wd := words[(idx>>3)&8191]
		bit := idx & 7
		if wd&(1<<bit) != 0 {
			if stores {
				scr.aShort = append(scr.aShort, p)
			} else {
				scr.sink ^= uint32(pp)
			}
		}
		if wd&(1<<(bit+8)) != 0 {
			key := (v4 * bitarr.MulHashConst) >> shift
			if f3[(key>>3)&f3mask]&(1<<(key&7)) != 0 {
				if stores {
					scr.aLong = append(scr.aLong, p)
				} else {
					scr.sink ^= uint32(pp) << 8
				}
			}
		}
	}
}

// plainRangeSplit is the unaccelerated S-PATCH probe loop over [i, end),
// end <= len(input)-3, with the same 5-windows-per-load SWAR structure
// as plainRangeMerged.
func (m *common) plainRangeSplit(scr *Scratch, input []byte, i, end int) {
	f1 := filterBytes(m.fs.Filter1.Bytes())
	f2 := filterBytes(m.fs.Filter2.Bytes())
	f3 := m.fs.Filter3.Bytes()
	f3mask := uint32(len(f3) - 1)
	shift := m.fs.Filter3.Shift()
	packEnd := end - 5
	if lim := len(input) - 8; lim < packEnd {
		packEnd = lim
	}
	for ; i <= packEnd; i += 5 {
		v := binary.LittleEndian.Uint64(input[i:])
		for k := 0; k < 5; k++ {
			idx := uint32(v>>(8*uint(k))) & 0xffff
			bit := idx & 7
			if f1[(idx>>3)&8191]&(1<<bit) != 0 {
				scr.aShort = append(scr.aShort, int32(i+k))
			}
			if f2[(idx>>3)&8191]&(1<<bit) != 0 {
				v4 := uint32(v >> (8 * uint(k)))
				key := (v4 * bitarr.MulHashConst) >> shift
				if f3[(key>>3)&f3mask]&(1<<(key&7)) != 0 {
					scr.aLong = append(scr.aLong, int32(i+k))
				}
			}
		}
	}
	for ; i < end; i++ {
		m.probeSplit(scr, input, i)
	}
}

// drainSplit replays queued viable positions through the S-PATCH probe
// chain, in position order (two filter byte fetches instead of one
// merged word fetch).
func (m *common) drainSplit(scr *Scratch, input []byte, q []int32) {
	f1 := filterBytes(m.fs.Filter1.Bytes())
	f2 := filterBytes(m.fs.Filter2.Bytes())
	f3 := m.fs.Filter3.Bytes()
	f3mask := uint32(len(f3) - 1)
	shift := m.fs.Filter3.Shift()
	for _, p := range q {
		pp := int(p)
		v4 := binary.LittleEndian.Uint32(input[pp:])
		idx := v4 & 0xffff
		bit := idx & 7
		if f1[(idx>>3)&8191]&(1<<bit) != 0 {
			scr.aShort = append(scr.aShort, p)
		}
		if f2[(idx>>3)&8191]&(1<<bit) != 0 {
			key := (v4 * bitarr.MulHashConst) >> shift
			if f3[(key>>3)&f3mask]&(1<<(key&7)) != 0 {
				scr.aLong = append(scr.aLong, p)
			}
		}
	}
}

// Bounds-check-elimination audit (go build -gcflags=-d=ssa/check_bce).
// Direct-filter and union-bitmap indexes are masked into their
// fixed-size array-pointer domains ((idx>>3)&8191 for the 8 KB filter
// arrays, (w>>6)&1023 for the union bitmap, w&QueueMask for queue
// stores) — the prove pass does not carry the idx&0xffff range through
// the later shift, so the masks are load-bearing; the compiler folds
// them into the existing address arithmetic. The checks that remain are
// unavoidable and amortized:
//   - one binary.LittleEndian.Uint64 bounded access per 5-position pack
//     (the compiler cannot see packEnd+8 <= len(input) through the min
//     of two derivations);
//   - the binary.LittleEndian.Uint32 reads at queued/drained positions
//     (queue entries are data the prove pass cannot follow);
//   - filter-3 probes (the filter is runtime-sized; its key is masked
//     with f3mask, which the compiler cannot know equals len-1), taken
//     only behind a filter-2 hit;
//   - one q[:w] re-slice per drain.

// Command vpatch-soak is the flat-memory soak gate for the recycled
// ingest path: it drives the full capture→dispatch→reassembly→scan
// pipeline with churning IMIX flows (FIN teardowns, injected matches,
// arena-owned segments through HandleBatch) for a wall-clock duration,
// samples runtime.MemStats throughout, and fails — exit 1 — if memory
// keeps growing after warmup. A leak anywhere in the recycling story
// (arena refcounts, slab pool, reassembler buffers, flow teardown)
// shows up as a rising floor; a correct steady state is flat.
//
// Usage:
//
//	vpatch-soak                      # 30s soak, one shard per core
//	vpatch-soak -duration 5m -shards 4 -flows 512
//	vpatch-soak -max-growth 1.05     # tighten the post-warmup bound
//	vpatch-soak -conns 2000          # connection soak: 2000 concurrent
//	                                 # ingest connections through the
//	                                 # in-process daemon
//
// -conns N switches to the connection soak: the full resident daemon
// (fair scheduler, tenant generation, raw-TCP ingest) is stood up in
// process and N concurrent connections each stream short flows
// carrying exactly one injected match. The gate additionally requires
// a clean drain, zero scheduler sheds of the in-quota load, and a
// final alert count exactly equal to the flows sent — zero alerts
// lost or duplicated end to end.
//
// The first quarter of the duration is warmup (pools and flow tables
// filling toward their plateau); the gate compares the end of the run
// against the end of warmup: Sys (OS-claimed memory) must not grow
// more than -max-growth, and HeapInuse must not trend past the same
// bound. Segment rate, alert count, and arena gauges print either way.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/arena"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

func main() {
	duration := flag.Duration("duration", 30*time.Second, "soak wall-clock duration")
	shards := flag.Int("shards", 0, "worker shards (0 = one per core)")
	flows := flag.Int("flows", 256, "concurrent flows the churn maintains")
	maxGrowth := flag.Float64("max-growth", 1.10, "allowed Sys/HeapInuse growth factor after warmup")
	seed := flag.Int64("seed", 1, "traffic generator seed")
	conns := flag.Int("conns", 0, "connection-soak mode: drive this many concurrent raw-TCP ingest connections through an in-process daemon instead of the dispatcher loop")
	flag.Parse()
	if *conns > 0 {
		runConnSoak(*duration, *conns, *maxGrowth)
		return
	}
	if *shards <= 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	if *flows < 1 {
		*flows = 1
	}

	// A small fixed rule set keeps the soak ingest-bound (the property
	// under test is memory, not matcher throughput) while injected
	// matches keep the alert path live.
	set := patterns.FromStrings(
		"attack-sig-001", "malware-beacon", "exploit-shellcode",
		"/etc/passwd", "cmd.exe /c", "union select",
	)
	var alerts atomic.Uint64
	emit := func(ids.Alert) { alerts.Add(1) }
	eng, err := ids.NewEngine(set, vpatch.Options{}, nil)
	if err != nil {
		fatal(err)
	}
	a := arena.New(arena.Config{})
	d := eng.NewDispatcher(*shards, netsim.Limits{
		MaxFlows:          4 * *flows,
		FlowPendingBytes:  64 << 10,
		TotalPendingBytes: 16 << 20,
	}, emit)
	d.SetArena(a)

	// Pre-generate an IMIX payload pool (ISCX-like content with matches
	// injected from the set) and cycle through it; generation cost stays
	// out of the soak loop.
	pool := traffic.Packets(traffic.ISCXDay2, traffic.SimpleIMIX, 4096, *seed, set)

	// Flow churn state: each slot is a live flow that ends with a FIN
	// after its segment budget and is replaced by a fresh five-tuple —
	// the lifecycle that exercises teardown, tombstones, and eviction.
	type flowState struct {
		key  netsim.FlowKey
		seq  uint32
		left int // segments until FIN
	}
	nextID := uint32(0)
	newFlow := func() flowState {
		nextID++
		return flowState{
			key: netsim.FlowKey{
				SrcIP:   0x0a000000 + nextID,
				DstIP:   0xc0a80001,
				SrcPort: uint16(40000 + nextID%20000),
				DstPort: 80,
			},
			left: 16 + int(nextID%48),
		}
	}
	live := make([]flowState, *flows)
	for i := range live {
		live[i] = newFlow()
	}

	const batchSegs = 64
	batch := make([]netsim.Segment, 0, batchSegs)
	var segs, bytes uint64
	poolIdx := 0

	start := time.Now()
	deadline := start.Add(*duration)
	warmEnd := start.Add(*duration / 4)
	nextSample := start.Add(time.Second)

	type sample struct {
		at        time.Duration
		sys       uint64
		heapInuse uint64
	}
	var samples []sample
	var warm *sample // last sample inside the warmup window
	takeSample := func(now time.Time) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s := sample{at: now.Sub(start), sys: ms.Sys, heapInuse: ms.HeapInuse}
		samples = append(samples, s)
		if !now.After(warmEnd) {
			warm = &samples[len(samples)-1]
		}
	}

	fmt.Printf("soaking %s: %d shards, %d churning flows, IMIX traffic, batch %d\n",
		*duration, *shards, *flows, batchSegs)
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		if !now.Before(nextSample) {
			takeSample(now)
			nextSample = now.Add(time.Second)
		}
		for i := 0; i < batchSegs; i++ {
			f := &live[int(segs)%len(live)]
			p := pool[poolIdx]
			poolIdx = (poolIdx + 1) % len(pool)
			b := a.Rent(len(p))
			data := b.Data()[:len(p)]
			copy(data, p)
			var seg netsim.Segment
			seg.Flow = f.key
			seg.Seq = f.seq
			seg.TsMicros = uint64(now.Sub(start).Microseconds())
			seg.Payload = data
			seg.SetOwned(b)
			f.seq += uint32(len(p))
			f.left--
			if f.left == 0 {
				seg.Flags = netsim.FlagFIN
				*f = newFlow()
			}
			segs++
			bytes += uint64(len(p))
			batch = append(batch, seg)
		}
		d.HandleBatch(batch)
		batch = batch[:0]
	}
	d.Close()
	takeSample(time.Now())
	elapsed := time.Since(start)

	st := a.Stats()
	final := samples[len(samples)-1]
	rate := float64(segs) / elapsed.Seconds()
	fmt.Printf("drove %d segments (%d MB) in %s: %.0f segments/s, %.3f Gbps, %d alerts\n",
		segs, bytes>>20, elapsed.Round(time.Millisecond), rate,
		float64(bytes)*8/float64(elapsed.Nanoseconds()), alerts.Load())
	fmt.Printf("arena: in-use %d, peak %d chunks, pooled %d KB, overflows %d\n",
		st.InUse, st.Peak, st.PooledBytes>>10, st.Overflows)
	if warm == nil {
		// Degenerate duration: everything landed after warmup; gate
		// against the first sample instead.
		warm = &samples[0]
	}
	fmt.Printf("memstats: warmup-end Sys %d KB / HeapInuse %d KB, final Sys %d KB / HeapInuse %d KB (%d samples)\n",
		warm.sys>>10, warm.heapInuse>>10, final.sys>>10, final.heapInuse>>10, len(samples))

	failed := false
	if st.InUse != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d arena chunks still rented after Close — refcount leak\n", st.InUse)
		failed = true
	}
	if g := float64(final.sys) / float64(warm.sys); g > *maxGrowth {
		fmt.Fprintf(os.Stderr, "FAIL: Sys grew %.3fx after warmup (limit %.2fx) — memory is not flat\n", g, *maxGrowth)
		failed = true
	}
	// HeapInuse swings with GC phase, so single samples can lie in both
	// directions; the floor (minimum over a window) is what a leak
	// raises. Compare the floor of the last quarter against the floor of
	// the quarter right after warmup.
	floorOf := func(lo, hi time.Duration) uint64 {
		min := uint64(0)
		for _, s := range samples {
			if s.at >= lo && s.at <= hi && (min == 0 || s.heapInuse < min) {
				min = s.heapInuse
			}
		}
		return min
	}
	early := floorOf(*duration/4, *duration/2)
	late := floorOf(*duration*3/4, elapsed+time.Second)
	if early > 0 && late > 0 {
		if g := float64(late) / float64(early); g > *maxGrowth {
			fmt.Fprintf(os.Stderr, "FAIL: HeapInuse floor grew %.3fx after warmup (limit %.2fx) — heap is not flat\n", g, *maxGrowth)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("PASS: memory flat after warmup")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpatch-soak:", err)
	os.Exit(1)
}

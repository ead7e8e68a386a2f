package main

// The connection-soak mode (-conns N): instead of driving the
// dispatcher in process, it stands up the full resident daemon — fair
// scheduler, tenant generation, raw-TCP ingest listener — and hammers
// it with N concurrent ingest connections, each streaming short flows
// carrying exactly one injected match. The gate is the overload
// layer's whole contract at once: memory stays flat at thousands of
// connections, the scheduler sheds nothing (the load is in-quota), and
// after drain the tenant's alert count equals the flows sent — zero
// alerts lost or duplicated end to end.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/serve"
)

// connSoakPayload carries exactly one occurrence of the first soak
// pattern: one alert per flow, so the loss check is exact arithmetic.
func connSoakPayload() []byte {
	var b bytes.Buffer
	b.Write(bytes.Repeat([]byte{'x'}, 200))
	b.WriteString("attack-sig-001")
	b.Write(bytes.Repeat([]byte{'x'}, 200))
	return b.Bytes()
}

func runConnSoak(duration time.Duration, conns int, maxGrowth float64) {
	// Each connection costs two descriptors (client and server ends live
	// in this process); raise the soft limit before dialing 2000+.
	raiseFileLimit(uint64(4*conns + 256))

	set := patterns.FromStrings(
		"attack-sig-001", "malware-beacon", "exploit-shellcode",
		"/etc/passwd", "cmd.exe /c", "union select",
	)
	eng, err := ids.NewEngine(set, vpatch.Options{}, nil)
	if err != nil {
		fatal(err)
	}
	var blob bytes.Buffer
	if _, err := eng.WriteDB(&blob); err != nil {
		fatal(err)
	}

	// The short flow timeout keeps closed-flow tombstones churning:
	// expiry runs on the capture clock, which the senders advance by
	// stamping segments with elapsed time. Without both, 100k+ dead
	// flows' tombstones pile up and read as a leak.
	srv := serve.New(serve.Config{
		TenantDefaults: serve.TenantConfig{
			Shards:      runtime.GOMAXPROCS(0),
			FlowTimeout: 10 * time.Second,
		},
		IngestQueueBytes: 64 << 20,
	})
	tn, err := srv.CreateTenant(serve.DefaultTenant, serve.TenantConfig{})
	if err != nil {
		fatal(err)
	}
	if _, err := tn.Reload(blob.Bytes()); err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	go srv.ServeIngest(ln)
	addr := ln.Addr().String()

	payload := connSoakPayload()
	start := time.Now()
	deadline := start.Add(duration)
	var flowsSent, sendErrs atomic.Uint64

	// Pace so the AGGREGATE offered load stays constant as -conns grows:
	// concurrency, not throughput, is the property under soak, and a
	// single-core box must stay comfortably inside the pipeline's
	// capacity or the scheduler (correctly) sheds and voids the
	// exactly-once arithmetic. ~150µs of spacing per connection keeps
	// the fleet near a few thousand flows/s total at any -conns.
	pace := time.Duration(conns) * 150 * time.Microsecond
	if pace < 50*time.Millisecond {
		pace = 50 * time.Millisecond
	}

	fmt.Printf("connection soak %s: %d concurrent ingest connections into %s (%d shards)\n",
		duration, conns, addr, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := serve.DialIngest(addr, serve.DefaultTenant)
			if err != nil {
				sendErrs.Add(1)
				return
			}
			defer c.Close()
			key := netsim.FlowKey{
				SrcIP:   0x0a000000 + uint32(id),
				DstIP:   0xc0a80001,
				DstPort: 80,
			}
			var buf []byte
			for n := 0; time.Now().Before(deadline); n++ {
				// One short flow per burst: a single FIN segment whose
				// payload holds exactly one match.
				key.SrcPort = uint16(40000 + n%20000)
				buf = serve.AppendSegment(buf[:0], netsim.Segment{
					Flow: key, Payload: payload, Flags: netsim.FlagFIN,
					TsMicros: uint64(time.Since(start).Microseconds()),
				})
				if _, err := c.Write(buf); err != nil {
					sendErrs.Add(1)
					return
				}
				flowsSent.Add(1)
				time.Sleep(pace + time.Duration(id%37)*time.Millisecond)
			}
		}(i)
	}

	// Sample memory once a second while the fleet runs; the gate
	// compares post-warmup to final. Warmup is half the duration (the
	// dispatcher soak uses a quarter): the fleet itself ramps — every
	// connection buys descriptors, a server goroutine, and read
	// buffers — and only the post-plateau trend is a leak signal.
	type sample struct{ sys, heapInuse uint64 }
	var samples []sample
	var warm *sample
	warmEnd := start.Add(duration / 2)
	for now := start; now.Before(deadline); now = time.Now() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		samples = append(samples, sample{ms.Sys, ms.HeapInuse})
		if !now.After(warmEnd) {
			warm = &samples[len(samples)-1]
		}
		time.Sleep(time.Second)
	}
	wg.Wait()

	rep := srv.Drain(time.Minute)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	final := sample{ms.Sys, ms.HeapInuse}
	if warm == nil {
		warm = &samples[0]
	}
	sched := srv.SchedStats(serve.DefaultTenant)
	td := rep.Tenants[serve.DefaultTenant]

	fmt.Printf("drove %d flows over %d connections: %d alerts, %d flows closed, %d sched batches (%d MB)\n",
		flowsSent.Load(), conns, td.Alerts, td.FlowsClosed,
		sched.DispatchedBatches, sched.DispatchedBytes>>20)
	fmt.Printf("memstats: warmup-end Sys %d KB / HeapInuse %d KB, final Sys %d KB / HeapInuse %d KB (%d samples)\n",
		warm.sys>>10, warm.heapInuse>>10, final.sys>>10, final.heapInuse>>10, len(samples))

	failed := false
	if n := sendErrs.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d connections hit send errors — alert accounting is void\n", n)
		failed = true
	}
	if !rep.Clean {
		fmt.Fprintln(os.Stderr, "FAIL: drain was dirty — residual pipeline state")
		failed = true
	}
	if td.Alerts != flowsSent.Load() {
		fmt.Fprintf(os.Stderr, "FAIL: %d alerts for %d flows sent — alerts were lost or duplicated\n",
			td.Alerts, flowsSent.Load())
		failed = true
	}
	if sched.DroppedBatches != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: scheduler shed %d batches (%d bytes) of in-quota load\n",
			sched.DroppedBatches, sched.DroppedBytes)
		failed = true
	}
	if g := float64(final.sys) / float64(warm.sys); g > maxGrowth {
		fmt.Fprintf(os.Stderr, "FAIL: Sys grew %.3fx after warmup (limit %.2fx) — memory is not flat under %d connections\n",
			g, maxGrowth, conns)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("PASS: %d connections, zero alert loss, zero shed, memory flat\n", conns)
}

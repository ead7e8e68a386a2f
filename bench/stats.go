package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vpatch"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, or NaN for no samples. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// cpuNanos returns the process's user+system CPU time so far:
// additive across goroutines, and it includes the load generator.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssSampler tracks the process's resident set from the moment the
// inputs exist: the generator's transient garbage is returned to the OS
// first, so the peak is the daemon's (set-up included), not the
// corpus builder's.
type rssSampler struct {
	quit chan struct{}
	once sync.Once
	done chan struct{}
	peak float64
	n    int
}

func startRSSSampler() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb := residentMB(); mb > 0 {
				s.peak = max(s.peak, mb)
				s.n++
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB and the sample count.
func (s *rssSampler) stop() (float64, int) {
	s.once.Do(func() { close(s.quit) })
	<-s.done
	return s.peak, s.n
}

// residentMB reads the resident set size from /proc/self/statm (second
// field, in pages), or 0 when that cannot be read.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// host identifies where a result was measured, so snapshots from
// different machines are never compared silently.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"extract_kernel"` // what /metrics exports as vpatch_kernel_info
	Shards     int    `json:"shards"`
	Transport  string `json:"transport"`
}

func fingerprint() host {
	h := host{
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: vpatch.ActiveKernel().String(),
		Shards: shards, Transport: "loopback, in-process server",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

package vpatch

// Benchmark harness: one benchmark family per figure of the paper's
// evaluation (wall-clock analogues of the cost-model experiments driven
// by cmd/vpatch-bench), plus the ablation benches for the design choices
// of PAPER.md §IV (merged filters, speculative filter 3, vector width,
// filter-3 size, the two-round split). Run with:
//
//	go test -bench=. -benchmem
//
// Fixture sizes are kept at 1 MB per dataset so the full suite completes
// in minutes; cmd/vpatch-bench scales to arbitrary sizes.

import (
	"sync"
	"testing"

	"vpatch/internal/core"
	"vpatch/internal/engine"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

const benchBytes = 1 << 20

type fixtures struct {
	s1web, s2web, s2 *patterns.Set
	data             map[string][]byte // per dataset name, built against s1web
}

var (
	fixOnce sync.Once
	fix     fixtures
)

func benchFixtures() *fixtures {
	fixOnce.Do(func() {
		fix.s1web = patterns.GenerateS1(1).WebSubset()
		s2 := patterns.GenerateS2(1)
		fix.s2 = s2
		fix.s2web = s2.WebSubset()
		fix.data = map[string][]byte{
			"ISCX-day2": traffic.Synthesize(traffic.ISCXDay2, benchBytes, 1, fix.s1web),
			"ISCX-day6": traffic.Synthesize(traffic.ISCXDay6, benchBytes, 1, fix.s1web),
			"DARPA":     traffic.Synthesize(traffic.DARPA2000, benchBytes, 1, fix.s1web),
			"random":    traffic.Random(benchBytes, 1),
		}
	})
	return &fix
}

var benchDatasets = []string{"ISCX-day2", "ISCX-day6", "DARPA", "random"}

func benchScan(b *testing.B, m *Session, data []byte) {
	b.Helper()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(data, nil, nil)
	}
}

// figThroughput runs the five paper algorithms over the four datasets —
// the Fig 4 (W=8) and Fig 7 (W=16) wall-clock analogues.
func figThroughput(b *testing.B, set *patterns.Set, width int) {
	f := benchFixtures()
	algos := []Algorithm{AlgoAhoCorasick, AlgoDFC, AlgoVectorDFC, AlgoSPatch, AlgoVPatch}
	matchers := make(map[Algorithm]*Session, len(algos))
	for _, alg := range algos {
		m, err := newSession(set, Options{Algorithm: alg, VectorWidth: width})
		if err != nil {
			b.Fatal(err)
		}
		matchers[alg] = m
	}
	for _, ds := range benchDatasets {
		for _, alg := range algos {
			b.Run(ds+"/"+alg.String(), func(b *testing.B) {
				benchScan(b, matchers[alg], f.data[ds])
			})
		}
	}
}

// BenchmarkFig4a: overall throughput, 2K web patterns, W=8 (Haswell cfg).
func BenchmarkFig4a(b *testing.B) { figThroughput(b, benchFixtures().s1web, 8) }

// BenchmarkFig4b: overall throughput, 9K web patterns, W=8.
func BenchmarkFig4b(b *testing.B) { figThroughput(b, benchFixtures().s2web, 8) }

// BenchmarkFig5a: S-PATCH vs V-PATCH as the number of patterns grows
// (random subsets of the full 20K set).
func BenchmarkFig5a(b *testing.B) {
	f := benchFixtures()
	for _, n := range []int{1000, 5000, 10000, 20000} {
		sub := f.s2.Subset(n, 1)
		data := traffic.Synthesize(traffic.ISCXDay2, benchBytes, 1, sub)
		for _, alg := range []Algorithm{AlgoSPatch, AlgoVPatch} {
			m, err := newSession(sub, Options{Algorithm: alg})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(alg.String()+"/"+itoa(n), func(b *testing.B) { benchScan(b, m, data) })
		}
	}
}

// BenchmarkFig5c: S-PATCH vs V-PATCH as the fraction of matching input
// grows (2K-pattern ruleset, injected matches).
func BenchmarkFig5c(b *testing.B) {
	f := benchFixtures()
	set := f.s2.Subset(2000, 1)
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		data := traffic.Random(benchBytes, 1)
		traffic.InjectMatches(data, set, frac, 3)
		for _, alg := range []Algorithm{AlgoSPatch, AlgoVPatch} {
			m, err := newSession(set, Options{Algorithm: alg})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(alg.String()+"/match"+itoa(int(frac*100)), func(b *testing.B) { benchScan(b, m, data) })
		}
	}
}

// BenchmarkFig6: filtering-phase-only throughput — the scalar filtering
// round, the vector round with candidate stores, and the vector round
// with stores suppressed, on the three pattern-set sizes.
func BenchmarkFig6(b *testing.B) {
	f := benchFixtures()
	sets := map[string]*patterns.Set{"2K": f.s1web, "9K": f.s2web, "20K": f.s2}
	data := f.data["ISCX-day2"]
	for name, set := range sets {
		sp := core.NewSPatch(set, core.Options{})
		vp := core.NewVPatch(set, core.VOptions{})
		b.Run(name+"/S-PATCH-filtering", func(b *testing.B) {
			b.SetBytes(benchBytes)
			for i := 0; i < b.N; i++ {
				sp.FilterOnly(data, nil)
			}
		})
		b.Run(name+"/V-PATCH-filtering+stores", func(b *testing.B) {
			b.SetBytes(benchBytes)
			for i := 0; i < b.N; i++ {
				vp.FilterOnly(data, nil, true)
			}
		})
		b.Run(name+"/V-PATCH-filtering", func(b *testing.B) {
			b.SetBytes(benchBytes)
			for i := 0; i < b.N; i++ {
				vp.FilterOnly(data, nil, false)
			}
		})
	}
}

// BenchmarkFig7a: the Xeon-Phi configuration (W=16 lanes), 2K patterns.
// (The Phi's clock/cache behaviour is modeled by cmd/vpatch-bench; the
// wall-clock analogue here shows the width-16 emulation cost.)
func BenchmarkFig7a(b *testing.B) { figThroughput(b, benchFixtures().s1web, 16) }

// BenchmarkFig7b: W=16 lanes, 9K patterns.
func BenchmarkFig7b(b *testing.B) { figThroughput(b, benchFixtures().s2web, 16) }

// --- Ablation benches ---
// All variants run through the explicit vector engine (lane-exact
// scans), so the comparison isolates the design choice from the fused
// fast path.

func benchVPatchVariant(b *testing.B, opt core.VOptions) {
	f := benchFixtures()
	m := core.NewVPatch(f.s1web, opt)
	data := f.data["ISCX-day2"]
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := metrics.Counters{LaneExact: true}
		m.Scan(data, &c, nil)
	}
}

// BenchmarkAblationFilterMerge: one merged gather vs two separate gathers
// for filters 1+2 (the Fig. 3 optimization).
func BenchmarkAblationFilterMerge(b *testing.B) {
	b.Run("merged", func(b *testing.B) { benchVPatchVariant(b, core.VOptions{}) })
	b.Run("separate", func(b *testing.B) { benchVPatchVariant(b, core.VOptions{NoFilterMerge: true}) })
}

// BenchmarkAblationSpeculative: speculative all-lane filter 3 vs
// per-active-lane branching (the alternative the paper rejected).
func BenchmarkAblationSpeculative(b *testing.B) {
	b.Run("speculative", func(b *testing.B) { benchVPatchVariant(b, core.VOptions{}) })
	b.Run("branchy", func(b *testing.B) { benchVPatchVariant(b, core.VOptions{BranchyFilter3: true}) })
}

// BenchmarkAblationWidth: vector width sweep (SSE/AVX2/AVX-512 lanes).
func BenchmarkAblationWidth(b *testing.B) {
	for _, w := range []int{4, 8, 16} {
		b.Run("W"+itoa(w), func(b *testing.B) { benchVPatchVariant(b, core.VOptions{Width: w}) })
	}
}

// BenchmarkAblationFilter3Size: the filtering-rate vs cache-footprint
// trade-off of filter 3 (8 KB - 128 KB).
func BenchmarkAblationFilter3Size(b *testing.B) {
	f := benchFixtures()
	data := f.data["ISCX-day2"]
	for _, log2bits := range []uint{16, 17, 18, 20} {
		m := core.NewVPatch(f.s2web, core.VOptions{Filter3Log2Bits: log2bits})
		b.Run(itoa(1<<(log2bits-13))+"KB", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				m.Scan(data, nil, nil)
			}
		})
	}
}

// BenchmarkAblationTwoRound: the two-round split's chunk-size dependence
// (cache locality of the candidate arrays) against inline DFC.
func BenchmarkAblationTwoRound(b *testing.B) {
	f := benchFixtures()
	data := f.data["ISCX-day2"]
	for _, chunk := range []int{4 << 10, 64 << 10, 1 << 20} {
		m := core.NewSPatch(f.s1web, core.Options{ChunkSize: chunk})
		b.Run("spatch-chunk"+itoa(chunk>>10)+"K", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				m.Scan(data, nil, nil)
			}
		})
	}
	m, _ := newSession(f.s1web, Options{Algorithm: AlgoDFC})
	b.Run("dfc-inline", func(b *testing.B) { benchScan(b, m, data) })
}

// BenchmarkStreamScanner: chunked scanning overhead vs whole-buffer.
func BenchmarkStreamScanner(b *testing.B) {
	f := benchFixtures()
	data := f.data["ISCX-day2"]
	m, _ := newSession(f.s1web, Options{})
	b.Run("whole", func(b *testing.B) { benchScan(b, m, data) })
	b.Run("chunked1500", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			s, _ := m.NewStreamScanner(func(StreamMatch) {})
			for pos := 0; pos < len(data); pos += 1500 {
				end := pos + 1500
				if end > len(data) {
					end = len(data)
				}
				s.Write(data[pos:end])
			}
		}
	})
}

// BenchmarkBatchSmallPackets: the small-packet workload (the batch scan
// path's target): per-packet Session.Scan vs one ScanBatch call per 32
// packets, at the sizes real NIDS traffic is dominated by.
func BenchmarkBatchSmallPackets(b *testing.B) {
	f := benchFixtures()
	eng, err := Compile(f.s1web, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64, 256, 1514} {
		pkts := traffic.FixedPackets(traffic.ISCXDay2, size, benchBytes/size, 1, f.s1web)
		total := int64(0)
		for _, p := range pkts {
			total += int64(len(p))
		}
		b.Run("serial/"+itoa(size), func(b *testing.B) {
			s := eng.NewSession()
			b.SetBytes(total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pkts {
					s.Scan(p, nil, nil)
				}
			}
		})
		b.Run("batch/"+itoa(size), func(b *testing.B) {
			s := eng.NewSession()
			b.SetBytes(total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(pkts); lo += 32 {
					hi := lo + 32
					if hi > len(pkts) {
						hi = len(pkts)
					}
					s.ScanBatch(pkts[lo:hi], nil, nil)
				}
			}
		})
	}
}

// --- Acceleration benches (the hot-path skip-loop layer) ---
// Each family runs the accelerated kernel against the plain one on the
// same traffic in the same process, so the accel/plain ratio is
// meaningful even on noisy machines.

// BenchmarkAccelClean is the headline: 0% match density (clean random
// traffic — the encrypted/compressed payload case), 2K web patterns,
// W=8, filtering phase only. The skip loop clears the ~94% of windows
// the union bitmap rejects before the probe chain runs at all.
func BenchmarkAccelClean(b *testing.B) {
	f := benchFixtures()
	data := traffic.Random(benchBytes, 1)
	accel := core.NewVPatch(f.s1web, core.VOptions{})
	plain := core.NewVPatch(f.s1web, core.VOptions{NoAccel: true})
	b.Run("accel", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			accel.FilterOnly(data, nil, true)
		}
	})
	b.Run("plain", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			plain.FilterOnly(data, nil, true)
		}
	})
}

// BenchmarkAccelScan is the full-scan (filter + verify) view of the
// same comparison, for S-PATCH and V-PATCH.
func BenchmarkAccelScan(b *testing.B) {
	f := benchFixtures()
	data := traffic.Random(benchBytes, 1)
	for _, v := range []struct {
		alg     Algorithm
		on, off engine.Engine
	}{
		{AlgoVPatch, core.NewVPatch(f.s1web, core.VOptions{}), core.NewVPatch(f.s1web, core.VOptions{NoAccel: true})},
		{AlgoSPatch, core.NewSPatch(f.s1web, core.Options{}), core.NewSPatch(f.s1web, core.Options{NoAccel: true})},
	} {
		on := &Engine{alg: v.alg, set: f.s1web, eng: v.on}
		off := &Engine{alg: v.alg, set: f.s1web, eng: v.off}
		b.Run(v.alg.String()+"/accel", func(b *testing.B) { benchScan(b, on.NewSession(), data) })
		b.Run(v.alg.String()+"/plain", func(b *testing.B) { benchScan(b, off.NewSession(), data) })
	}
}

// BenchmarkAccelDense is the governor guard: 100% match density, where
// skipping cannot pay and the span governor must keep the accelerated
// engine within a few percent of the plain one (the Fig.-5c
// high-density acceptance bound).
func BenchmarkAccelDense(b *testing.B) {
	f := benchFixtures()
	set := f.s2.Subset(2000, 1)
	data := traffic.Random(benchBytes, 1)
	traffic.InjectMatches(data, set, 1.0, 3)
	accel := core.NewVPatch(set, core.VOptions{})
	plain := core.NewVPatch(set, core.VOptions{NoAccel: true})
	b.Run("accel", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			accel.Scan(data, nil, nil)
		}
	})
	b.Run("plain", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			plain.Scan(data, nil, nil)
		}
	})
}

// BenchmarkAccelIndexByte: a rare-start-byte rule set (every pattern
// opens with the same two bytes), where the skip primitive is the
// runtime's assembly-backed bytes.IndexByte and clean traffic is
// cleared at memchr speed.
func BenchmarkAccelIndexByte(b *testing.B) {
	set := NewPatternSet()
	for _, p := range []string{"\x00\x01BAD", "\x00\x01EVIL", "\x00\x01wormsign", "\x00\x01inject"} {
		set.Add([]byte(p), false, ProtoGeneric)
	}
	data := traffic.Synthesize(traffic.ISCXDay2, benchBytes, 1, nil)
	accel := core.NewVPatch(set, core.VOptions{})
	plain := core.NewVPatch(set, core.VOptions{NoAccel: true})
	b.Run("accel", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			accel.Scan(data, nil, nil)
		}
	})
	b.Run("plain", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			plain.Scan(data, nil, nil)
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

package vpatch

import (
	"math/rand"
	"sync"
	"testing"

	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

// batchFixtureBuffers builds a shuffled batch exercising every edge the
// batch path has: IMIX-sized packets with embedded attacks, empty
// buffers, sub-window buffers (1-3 B, scalar-only), and one
// multi-chunk buffer (forces mid-buffer verification flushes).
func batchFixtureBuffers(set *patterns.Set, seed int64) [][]byte {
	bufs := traffic.Packets(traffic.ISCXDay2, traffic.SimpleIMIX, 120, seed, set)
	bufs = append(bufs,
		nil,
		[]byte{},
		[]byte("a"),
		[]byte("ab"),
		[]byte("abc"),
		traffic.Synthesize(traffic.ISCXDay6, 96<<10, seed+1, set), // > one 64 KB chunk
	)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(bufs), func(i, j int) { bufs[i], bufs[j] = bufs[j], bufs[i] })
	return bufs
}

// TestScanBatchMatchesSerial is the batch contract: for every
// algorithm, ScanBatch over a shuffled set of buffers reports — buffer
// by buffer — exactly the matches a serial FindAll of that buffer
// reports. Short patterns make the scalar-tail and sub-window paths
// carry matches too.
func TestScanBatchMatchesSerial(t *testing.T) {
	set := patterns.GenerateS1(7).Subset(150, 3)
	set.Add([]byte("ab"), false, patterns.ProtoGeneric) // short-filter coverage
	set.Add([]byte("T"), true, patterns.ProtoGeneric)   // 1-byte, nocase
	bufs := batchFixtureBuffers(set, 11)

	for _, alg := range allAlgorithms {
		eng, err := Compile(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		want := make([][]Match, len(bufs))
		total := 0
		for i, buf := range bufs {
			want[i] = eng.FindAll(buf)
			total += len(want[i])
		}
		if total == 0 {
			t.Fatalf("%v: test needs matches", alg)
		}

		got := eng.FindAllBatch(bufs)
		for i := range bufs {
			if !patterns.EqualMatches(got[i], want[i]) {
				t.Fatalf("%v: buffer %d (%d B): batch %d matches, serial %d",
					alg, i, len(bufs[i]), len(got[i]), len(want[i]))
			}
		}

		// Session path, and batch reuse on the same session.
		s := eng.NewSession()
		for rep := 0; rep < 2; rep++ {
			out := make([][]Match, len(bufs))
			s.ScanBatch(bufs, nil, func(b int, m Match) { out[b] = append(out[b], m) })
			for i := range bufs {
				patterns.SortMatches(out[i])
				if !patterns.EqualMatches(out[i], want[i]) {
					t.Fatalf("%v: session batch rep %d diverged on buffer %d", alg, rep, i)
				}
			}
		}
	}
}

// TestVPatchBatchInstrumentedPath: V-PATCH's lane-exact batch scan (the
// explicit vector engine, buffer by buffer) must be match-identical to
// the fused production path, fill the vector-engine counters, and count
// every byte.
func TestVPatchBatchInstrumentedPath(t *testing.T) {
	set := patterns.GenerateS1(5).Subset(200, 1)
	bufs := batchFixtureBuffers(set, 23)
	eng, err := Compile(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.FindAllBatch(bufs) // fused path

	c := Counters{LaneExact: true} // the explicit vector engine
	s := eng.NewSession()
	out := make([][]Match, len(bufs))
	s.ScanBatch(bufs, &c, func(b int, m Match) { out[b] = append(out[b], m) })
	for i := range bufs {
		patterns.SortMatches(out[i])
		if !patterns.EqualMatches(out[i], want[i]) {
			t.Fatalf("lane-exact batch diverged from fused on buffer %d", i)
		}
	}

	var total uint64
	for _, b := range bufs {
		total += uint64(len(b))
	}
	if c.BytesScanned != total {
		t.Fatalf("BytesScanned %d, want %d", c.BytesScanned, total)
	}
	if c.VectorIters == 0 || c.MergedGathers == 0 {
		t.Fatalf("batch instrumentation missing: %+v", c)
	}
}

// TestConcurrentBatchSessions: one Engine, 8 goroutines each
// batch-scanning through a private Session; run under -race this
// proves batch scratch state is fully per-session.
func TestConcurrentBatchSessions(t *testing.T) {
	set := patterns.GenerateS1(13).Subset(120, 5)
	bufs := batchFixtureBuffers(set, 31)

	for _, alg := range allAlgorithms {
		eng, err := Compile(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		want := eng.FindAllBatch(bufs)

		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := eng.NewSession()
				out := make([][]Match, len(bufs))
				s.ScanBatch(bufs, nil, func(b int, m Match) { out[b] = append(out[b], m) })
				for i := range bufs {
					patterns.SortMatches(out[i])
					if !patterns.EqualMatches(out[i], want[i]) {
						errs <- alg.String()
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if name, ok := <-errs; ok {
			t.Fatalf("%s: concurrent batch session diverged", name)
		}
	}
}

// TestFindAllBatchParallel: the shared-queue parallel batch scan must
// equal the single-threaded batch scan for any worker count.
func TestFindAllBatchParallel(t *testing.T) {
	set := patterns.GenerateS1(3).Subset(100, 7)
	bufs := batchFixtureBuffers(set, 41)
	eng, err := Compile(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.FindAllBatch(bufs)
	for _, workers := range []int{1, 2, 5, 8} {
		got := eng.FindAllBatchParallel(bufs, workers)
		for i := range bufs {
			if !patterns.EqualMatches(got[i], want[i]) {
				t.Fatalf("workers=%d: buffer %d diverged", workers, i)
			}
		}
	}
}

// TestFindAllBatchConvenience covers the compile-and-scan helper and
// the empty-batch edge.
func TestFindAllBatchConvenience(t *testing.T) {
	set := PatternSetFromStrings("needle")
	got, err := FindAllBatch(set, [][]byte{[]byte("a needle b"), []byte("none"), nil}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(got[0]) != 1 || got[0][0].Pos != 2 || len(got[1]) != 0 || len(got[2]) != 0 {
		t.Fatalf("FindAllBatch = %v", got)
	}
	eng, err := Compile(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := eng.FindAllBatch(nil); len(out) != 0 {
		t.Fatalf("empty batch returned %v", out)
	}
}

// TestScanZeroAlloc: a steady-state Session scan of S-PATCH or V-PATCH,
// serial or batch, with or without plain counters, allocates nothing —
// a serial scan is a batch of one held in the session's scratch, and
// both algorithms batch natively.
func TestScanZeroAlloc(t *testing.T) {
	set := patterns.GenerateS1(7).Subset(150, 3)
	bufs := traffic.FixedPackets(traffic.ISCXDay2, 512, 3, 5, set)
	matches := 0
	emit := func(Match) { matches++ }
	emitBatch := func(int, Match) { matches++ }
	for _, alg := range []Algorithm{AlgoVPatch, AlgoSPatch} {
		eng, err := Compile(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		s := eng.NewSession()
		var plain Counters
		for name, c := range map[string]*Counters{"nil": nil, "plain": &plain} {
			if n := testing.AllocsPerRun(50, func() { s.Scan(bufs[0], c, emit) }); n != 0 {
				t.Errorf("%v: Scan with %s counters: %v allocs/run", alg, name, n)
			}
			if n := testing.AllocsPerRun(50, func() { s.ScanBatch(bufs, c, emitBatch) }); n != 0 {
				t.Errorf("%v: ScanBatch with %s counters: %v allocs/run", alg, name, n)
			}
		}
	}
	if matches == 0 {
		t.Fatal("test needs matches")
	}
}

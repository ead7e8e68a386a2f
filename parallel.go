package vpatch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"vpatch/internal/patterns"
)

// Multi-core scanning of one large input — the deployment the paper's
// evaluation assumes ("different hardware threads can operate
// independently on different parts of the stream"). The input is cut
// into cache-friendly blocks that overlap by maxPatternLen-1 bytes (so
// matches spanning a boundary are found by exactly one worker); the
// blocks form a shared queue, and each worker repeatedly pulls a batch
// of blocks and scans it through its Session's ScanBatch. Pulling
// batches from a queue — rather than pre-splitting the input into one
// contiguous shard per worker — load-balances skew (a worker stuck in a
// match-dense region simply pulls fewer batches).

const (
	// parallelBlockBytes is the work-queue granularity: large enough
	// that queue traffic is negligible, small enough that dozens of
	// blocks exist to balance across workers.
	parallelBlockBytes = 512 << 10
	// parallelBatchPull is how many 512 KB blocks a worker takes per
	// queue round-trip.
	parallelBatchPull = 4
	// parallelBufferPull is how many whole buffers FindAllBatchParallel
	// workers pull per round-trip: buffers are typically small (packets,
	// requests), so pulls are sized like a ScanBatch batch — enough to
	// amortize per-call setup and share filtering rounds.
	parallelBufferPull = 32
)

// FindAllParallel scans one large input with several workers pulling
// batches of overlapping blocks from a shared queue; the result is
// identical to FindAll.
//
// The pattern set is compiled exactly once; every worker scans the
// shared Engine through its own Session. workers <= 0 selects
// GOMAXPROCS. For repeated scans, Compile once yourself and call
// Engine.FindAllParallel to also amortize compilation across calls.
func FindAllParallel(set *PatternSet, input []byte, opt Options, workers int) ([]Match, error) {
	e, err := Compile(set, opt)
	if err != nil {
		return nil, err
	}
	return e.FindAllParallel(input, workers), nil
}

// blockRange is one entry of the shared parallel work queue: a worker
// scanning it reads up to overlap bytes past end (for spanning matches)
// but reports only matches starting before end.
type blockRange struct {
	start, end int
}

// blockRanges cuts the input into the shared work queue: blocks of at
// most parallelBlockBytes, and at least one per worker so every worker
// has something to pull.
func blockRanges(inputLen, workers int) []blockRange {
	size := parallelBlockBytes
	if perWorker := (inputLen + workers - 1) / workers; perWorker < size {
		size = perWorker
	}
	if size < 1 {
		size = 1
	}
	blocks := make([]blockRange, 0, (inputLen+size-1)/size)
	for start := 0; start < inputLen; start += size {
		end := start + size
		if end > inputLen {
			end = inputLen
		}
		blocks = append(blocks, blockRange{start: start, end: end})
	}
	return blocks
}

// pullBatches is the shared work queue: `workers` goroutines repeatedly
// claim the next pull-sized index batch [lo, hi) of n items from one
// atomic cursor until the queue drains. run(w, lo, hi) executes on
// worker w's goroutine only, so per-worker state needs no locking. The
// pull size shrinks when there are too few items for every worker to
// claim a full batch, so no worker sits idle while others hold
// multi-item claims.
func pullBatches(n, workers, pull int, run func(w, lo, hi int)) {
	if pull > n/workers {
		pull = n / workers
	}
	if pull < 1 {
		pull = 1
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(pull))) - pull
				if lo >= n {
					return
				}
				hi := lo + pull
				if hi > n {
					hi = n
				}
				run(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// scanBlocksParallel runs the shared-queue scan: workers pull batches of
// blocks and report matches (with input-absolute positions) to their
// own sink; sink(w) is called once per worker before it starts pulling
// and must return a per-worker emit function (workers never share one).
func (e *Engine) scanBlocksParallel(input []byte, workers int, sink func(w int) EmitFunc) {
	overlap := shardOverlap(e.set)
	blocks := blockRanges(len(input), workers)

	type workerState struct {
		s     *Session
		emit  EmitFunc
		views [][]byte
		batch []blockRange
		// report translates (buffer index, block-relative match) into
		// input-absolute matches, dropping matches that only start
		// inside the overlap (the next block's worker reports those).
		report BatchEmitFunc
	}
	states := make([]*workerState, workers)
	pullBatches(len(blocks), workers, parallelBatchPull, func(w, lo, hi int) {
		ws := states[w]
		if ws == nil {
			ws = &workerState{s: e.NewSession(), emit: sink(w)}
			ws.report = func(buf int, mm Match) {
				blk := ws.batch[buf]
				pos := int(mm.Pos) + blk.start
				if pos < blk.end {
					ws.emit(Match{PatternID: mm.PatternID, Pos: int32(pos)})
				}
			}
			states[w] = ws
		}
		ws.batch = blocks[lo:hi]
		ws.views = ws.views[:0]
		for _, blk := range ws.batch {
			readEnd := blk.end + overlap
			if readEnd > len(input) {
				readEnd = len(input)
			}
			ws.views = append(ws.views, input[blk.start:readEnd])
		}
		ws.s.ScanBatch(ws.views, nil, ws.report)
	})
}

// FindAllParallel scans one large input with several workers sharing
// this compiled engine, each pulling batches of blocks from a shared
// queue through its own Session. The result is identical to FindAll.
// workers <= 0 selects GOMAXPROCS.
func (e *Engine) FindAllParallel(input []byte, workers int) []Match {
	workers = clampWorkers(workers, len(input))
	if workers <= 1 {
		return e.FindAll(input)
	}
	results := make([][]Match, workers)
	e.scanBlocksParallel(input, workers, func(w int) EmitFunc {
		return func(m Match) { results[w] = append(results[w], m) }
	})
	var all []Match
	for _, r := range results {
		all = append(all, r...)
	}
	patterns.SortMatches(all)
	return all
}

// CountParallel returns only the number of matches found by
// FindAllParallel-equivalent shared-queue scanning (without
// materializing the matches). Like FindAllParallel, the set is compiled
// once and shared by all workers.
func CountParallel(set *PatternSet, input []byte, opt Options, workers int) (uint64, error) {
	e, err := Compile(set, opt)
	if err != nil {
		return 0, err
	}
	return e.CountParallel(input, workers), nil
}

// CountParallel counts matches with shared-queue workers sharing this
// compiled engine (one Session per worker). workers <= 0 selects
// GOMAXPROCS.
func (e *Engine) CountParallel(input []byte, workers int) uint64 {
	workers = clampWorkers(workers, len(input))
	if workers <= 1 {
		return Count(e, input)
	}
	counts := make([]uint64, workers)
	e.scanBlocksParallel(input, workers, func(w int) EmitFunc {
		return func(Match) { counts[w]++ }
	})
	total := uint64(0)
	for _, n := range counts {
		total += n
	}
	return total
}

// clampWorkers resolves the worker count: GOMAXPROCS by default, never
// more than one worker per input byte (or buffer).
func clampWorkers(workers, inputLen int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > inputLen {
		workers = inputLen
	}
	return workers
}

// shardOverlap is how many bytes past its block end a worker must read
// so matches spanning the boundary complete: maxPatternLen-1.
func shardOverlap(set *PatternSet) int {
	if n := set.MaxLen(); n > 1 {
		return n - 1
	}
	return 0
}

// Package vpatch is an exact multiple-pattern-matching library for
// network-security workloads, reproducing "Multiple Pattern Matching for
// Network Security Applications: Acceleration through Vectorization"
// (Stylianopoulos et al., ICPP 2017).
//
// It provides the paper's contribution — the S-PATCH and V-PATCH
// cache-aware, vectorization-friendly filtering matchers — together with
// every baseline the paper evaluates (Aho-Corasick as used by Snort, DFC,
// Vector-DFC), all with identical match semantics.
//
// The API splits compilation from scanning. Compile builds an Engine: the
// immutable, goroutine-safe compiled form of a pattern set. An Engine is
// compiled once and shared — its Scan method may be called from any
// goroutine. For the lowest-overhead hot path, each goroutine takes a
// Session (cheap per-goroutine scratch) and scans through that:
//
//	set := vpatch.NewPatternSet()
//	set.Add([]byte("attack"), false, vpatch.ProtoHTTP)
//	eng, err := vpatch.Compile(set, vpatch.Options{Algorithm: vpatch.AlgoVPatch})
//	if err != nil { ... }
//	s := eng.NewSession() // one per goroutine
//	s.Scan(payload, nil, func(match vpatch.Match) {
//		fmt.Printf("pattern %d at offset %d\n", match.PatternID, match.Pos)
//	})
//
// Every matcher reports every occurrence of every pattern (pattern ID and
// start offset), byte-identical across algorithms; case-insensitive
// patterns are supported throughout. For scanning unbounded streams in
// chunks, see StreamScanner; for multi-core scans of one large input,
// see FindAllParallel.
//
// S-PATCH and V-PATCH carry a hot-path skip-loop acceleration layer
// (always on, exact, self-disabling on dense rule sets and
// traffic): clean payload is cleared in runs — via the runtime's
// bytes.IndexByte for rare-start-byte rule sets, or a branchless
// L1-resident window bitmap otherwise — before the filter probes run at
// all. Engine.Info reports the selected mode; see the README's
// performance guide.
//
// For the dominant NIDS workload — many small buffers (packets, HTTP
// requests, reassembled payload pieces) — scan batches instead of
// buffers: Session.ScanBatch / Engine.FindAllBatch hand the engine many
// buffers per call, and S-PATCH and V-PATCH run filtering and
// verification rounds that span the batch's buffers up to a cache-sized
// chunk, so a batch of packets pays one round of each instead of one per
// packet. See the README's batch scanning section for when to batch.
//
// Production rule sets are compiled offline: Engine.Serialize/WriteTo
// write the pattern set into a versioned, checksummed database that
// Deserialize/ReadFrom restore at startup — match-identical and
// goroutine-safe. Every engine is rebuilt from the stored patterns,
// which is faster than decoding stored engine state. The
// cmd/vpatch-compile tool is the offline compiler; see
// the README's offline-compilation section for the workflow and the
// format compatibility policy.
package vpatch

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"vpatch/internal/ahocorasick"
	"vpatch/internal/core"
	"vpatch/internal/dfc"
	"vpatch/internal/engine"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/rules"
	"vpatch/internal/vec"
)

// Re-exported pattern-set vocabulary. These are aliases, so values flow
// between the public API and the internal packages without conversion.
type (
	// Match is one reported occurrence: the pattern's ID and the start
	// offset of the occurrence in the scanned input.
	Match = patterns.Match
	// Pattern is one compiled search pattern.
	Pattern = patterns.Pattern
	// PatternSet is an immutable collection of patterns.
	PatternSet = patterns.Set
	// Protocol tags a pattern with its traffic class.
	Protocol = patterns.Protocol
	// Counters collects per-scan instrumentation; pass nil to Scan when
	// not needed. For S-PATCH and V-PATCH, attaching counters costs a
	// few clock reads per scan and never changes which kernels run;
	// only Counters.LaneExact selects the emulated vector engine and its
	// exact probe/gather/lane counts, at several times the scan cost.
	Counters = metrics.Counters
	// EmitFunc receives matches during a scan; nil means count-only.
	EmitFunc = patterns.EmitFunc
	// RuleSet is a compiled rule-semantics set: ordered content clauses
	// (offset/depth/distance/within, nocase) plus optional regex tails,
	// layered over a case-folded literal pattern set the engines
	// prefilter with. Build one with ParseRuleSet and hand it to
	// ids.NewRuleEngine. See the README's "Rule language" section.
	RuleSet = rules.Set
	// RuleParseOptions controls rule-set parsing (the regex verification
	// window override).
	RuleParseOptions = rules.ParseOptions
)

// Protocol tags, re-exported.
const (
	ProtoGeneric = patterns.ProtoGeneric
	ProtoHTTP    = patterns.ProtoHTTP
	ProtoDNS     = patterns.ProtoDNS
	ProtoFTP     = patterns.ProtoFTP
	ProtoSMTP    = patterns.ProtoSMTP
)

// NewPatternSet returns an empty pattern set.
func NewPatternSet() *PatternSet { return patterns.NewSet() }

// PatternSetFromStrings builds a case-sensitive set from literals.
func PatternSetFromStrings(ss ...string) *PatternSet { return patterns.FromStrings(ss...) }

// ParseRuleSet reads a Snort-lite rule stream (see the README's "Rule
// language" section for the accepted syntax) and compiles it into a
// rule-semantics set, including the case-folded prefilter literal set
// the engines scan with.
func ParseRuleSet(r io.Reader, opt RuleParseOptions) (*RuleSet, error) {
	return rules.ParseRules(r, opt)
}

// Algorithm selects the matching engine.
type Algorithm int

const (
	// AlgoVPatch is the paper's contribution: vectorized two-round
	// filtering (the default).
	AlgoVPatch Algorithm = iota
	// AlgoSPatch is the scalar version of the same design.
	AlgoSPatch
	// AlgoDFC is Direct Filter Classification (Choi et al., NSDI'16).
	AlgoDFC
	// AlgoVectorDFC is the direct vectorization of DFC's filtering.
	AlgoVectorDFC
	// AlgoAhoCorasick is the Snort-style full-matrix automaton.
	AlgoAhoCorasick
)

func (a Algorithm) String() string {
	switch a {
	case AlgoVPatch:
		return "V-PATCH"
	case AlgoSPatch:
		return "S-PATCH"
	case AlgoDFC:
		return "DFC"
	case AlgoVectorDFC:
		return "Vector-DFC"
	case AlgoAhoCorasick:
		return "Aho-Corasick"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm is the inverse of Algorithm.String: it resolves a name
// to an Algorithm, case-insensitively. Both the canonical names
// ("V-PATCH", "Aho-Corasick", ...) and the CLI spellings used by the
// cmd/ tools ("vpatch", "spatch", "dfc", "vectordfc", "ac", plus common
// abbreviations) are accepted. The names of the two retired engines,
// Wu-Manber and FFBF, yield an error wrapping ErrRetiredAlgorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "vpatch", "v-patch":
		return AlgoVPatch, nil
	case "spatch", "s-patch":
		return AlgoSPatch, nil
	case "dfc":
		return AlgoDFC, nil
	case "vectordfc", "vector-dfc", "vdfc":
		return AlgoVectorDFC, nil
	case "ac", "ahocorasick", "aho-corasick":
		return AlgoAhoCorasick, nil
	case "wumanber", "wu-manber", "wm":
		return 0, retiredError("Wu-Manber")
	case "ffbf":
		return 0, retiredError("FFBF")
	}
	return 0, fmt.Errorf("vpatch: unknown algorithm %q (want vpatch, spatch, dfc, vectordfc or ac)", name)
}

// Kernel identifies a native filtering-round kernel of the filtering
// engines (S-PATCH, V-PATCH). The engines' hot extract loop dispatches
// once, at Compile/Deserialize time, to the best kernel the host CPU
// supports (CPUID-probed): the AVX2 shuffle/gather/movemask classifier
// (amd64, the paper's §IV-B instruction recipe in hardware) or the
// portable SWAR path, which runs on every architecture and is the
// reference oracle the assembly is property-tested against.
type Kernel = vec.KernelID

// ActiveKernel returns the kernel Compile and Deserialize dispatch to
// on this host.
func ActiveKernel() Kernel { return vec.Best() }

// Options configures Compile. The zero value selects V-PATCH at W=8
// lanes. The paper's remaining parameters (a 16 KB filter 3, 64 KB
// filtering chunks) and the skip-loop acceleration of S-PATCH and
// V-PATCH are fixed for callers of Compile; the engines pick their scan
// path themselves.
type Options struct {
	// Algorithm selects the engine (default AlgoVPatch).
	Algorithm Algorithm
	// VectorWidth is the emulated register width in 32-bit lanes for the
	// vectorized engines: 4, 8 (default, AVX2) or 16 (AVX-512/Xeon Phi).
	VectorWidth int
}

// Engine is the compiled, immutable form of a pattern set: all filter
// and verification state is read-only after Compile, so a single Engine
// may be shared by any number of goroutines. This is the expensive part
// of a matcher — for Aho-Corasick on a Snort-sized rule set it is
// hundreds of megabytes of automaton — and the split between it and the
// cheap per-goroutine Session is what lets the paper's multi-core
// deployment compile once and scan everywhere.
//
// Engine.Scan is itself safe for concurrent use (it draws scratch from
// an internal pool); goroutines scanning in a tight loop should hold
// their own Session instead to skip the pool round-trip.
type Engine struct {
	alg Algorithm
	set *PatternSet
	eng engine.Engine

	// sessions recycles per-goroutine scratch for the concurrency-safe
	// Engine.Scan convenience path.
	sessions sync.Pool
}

// Compile builds the immutable Engine for a pattern set. The Engine is
// safe for concurrent use from any number of goroutines.
func Compile(set *PatternSet, opt Options) (*Engine, error) {
	if set == nil {
		return nil, fmt.Errorf("vpatch: nil pattern set")
	}
	switch w := opt.VectorWidth; w {
	case 0, 4, 8, 16:
	default:
		return nil, fmt.Errorf("vpatch: unsupported vector width %d (want 4, 8 or 16)", w)
	}
	var eng engine.Engine
	switch opt.Algorithm {
	case AlgoVPatch:
		eng = core.NewVPatch(set, core.VOptions{Width: opt.VectorWidth})
	case AlgoSPatch:
		eng = core.NewSPatch(set, core.Options{})
	case AlgoDFC:
		eng = dfc.Build(set)
	case AlgoVectorDFC:
		eng = dfc.BuildVector(set, opt.VectorWidth)
	case AlgoAhoCorasick:
		eng = ahocorasick.Build(set)
	default:
		return nil, fmt.Errorf("vpatch: unknown algorithm %d", int(opt.Algorithm))
	}
	return &Engine{alg: opt.Algorithm, set: set, eng: eng}, nil
}

// Algorithm returns the engine's algorithm.
func (e *Engine) Algorithm() Algorithm { return e.alg }

// Set returns the compiled pattern set.
func (e *Engine) Set() *PatternSet { return e.set }

// NewSession returns fresh per-goroutine scan state bound to this
// engine. Sessions are cheap (scratch buffers only — the compiled
// tables stay shared); allocate one per goroutine and reuse it across
// scans. A Session must not be used from two goroutines at once;
// distinct Sessions over one Engine are fully independent.
func (e *Engine) NewSession() *Session {
	return &Session{eng: e, scratch: e.eng.NewScratch()}
}

// Scan reports every occurrence of every pattern in input, in
// nondecreasing start-offset order per pattern class. c and emit may be
// nil; counters accumulate across calls. Scan is safe to call from any
// goroutine: scratch comes from an internal pool. Concurrent callers
// must pass distinct (or nil) Counters — the counter fields themselves
// are plain integers, not atomics. Hot loops should prefer a
// per-goroutine Session.
func (e *Engine) Scan(input []byte, c *Counters, emit EmitFunc) {
	s, _ := e.sessions.Get().(*Session)
	if s == nil {
		s = e.NewSession()
	}
	s.Scan(input, c, emit)
	e.sessions.Put(s)
}

// FindAll scans input and returns all matches sorted by (offset,
// pattern ID). Safe for concurrent use like Scan.
func (e *Engine) FindAll(input []byte) []Match {
	var out []Match
	e.Scan(input, nil, func(m Match) { out = append(out, m) })
	patterns.SortMatches(out)
	return out
}

// Session is the mutable per-goroutine half of a matcher: chunk work
// buffers, vector-lane state and candidate accumulators, referencing the
// shared immutable Engine. The zero value is not usable; obtain Sessions
// from Engine.NewSession.
//
// A Session is safe for repeated use from one goroutine at a time.
type Session struct {
	eng     *Engine
	scratch engine.Scratch
}

// Scan reports every occurrence of every pattern in input, in
// nondecreasing start-offset order per pattern class. c and emit may be
// nil; counters accumulate across calls.
func (s *Session) Scan(input []byte, c *Counters, emit EmitFunc) {
	s.eng.eng.ScanScratch(s.scratch, input, c, emit)
}

// Engine returns the shared compiled engine this session scans with.
func (s *Session) Engine() *Engine { return s.eng }

// Algorithm returns the engine's algorithm.
func (s *Session) Algorithm() Algorithm { return s.eng.alg }

// Set returns the compiled pattern set.
func (s *Session) Set() *PatternSet { return s.eng.set }

// FindAll is a convenience helper: compile-and-scan in one call,
// returning all matches sorted by (offset, pattern ID). For repeated
// scans, compile once with Compile instead.
func FindAll(set *PatternSet, input []byte, opt Options) ([]Match, error) {
	e, err := Compile(set, opt)
	if err != nil {
		return nil, err
	}
	return e.FindAll(input), nil
}

// Count scans input with an *Engine or a *Session and returns only the
// number of matches. It scans un-instrumented (nil counters), so engines
// take their fastest path.
func Count(s interface {
	Scan([]byte, *Counters, EmitFunc)
}, input []byte) uint64 {
	var n uint64
	s.Scan(input, nil, func(Match) { n++ })
	return n
}

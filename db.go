package vpatch

// Compiled pattern databases: the serialized form of an Engine.
//
// Production rule sets are compiled offline — the way DFC and
// Hyperscan-class matchers ship a read-only compiled database — and
// loaded at startup instead of re-parsed from rule text on every
// process start. Serialize/WriteTo write the pattern set into a
// versioned, checksummed .vpdb blob; no engine stores its compiled
// state, because every one of the five builds from the patterns in
// one pass, faster than a decoder could validate stored state.
// Deserialize/ReadFrom restore an Engine that is scan-for-scan
// identical to the original, including batch and session paths, and
// just as goroutine-safe, by compiling the decoded pattern set.
//
// The load path trusts nothing: magic, format version, CRC and the
// pattern-set digest are validated, and every decoded array length and
// index is bounds-checked, so a truncated, corrupted or mismatched
// database yields an error — never a panic. See the README's "Offline
// compilation" section for the format versioning policy.

import (
	"errors"
	"fmt"
	"io"

	"vpatch/internal/dbfmt"
	"vpatch/internal/engine"
	"vpatch/internal/patterns"
)

// DBFormatVersion is the compiled-database format version this build
// writes. It reads that version and every older one back to 1; newer
// databases are rejected at load.
const DBFormatVersion = dbfmt.FormatVersion

// ErrRetiredAlgorithm is wrapped by the error for a database compiled
// for, or an algorithm name of, an engine this build no longer has.
var ErrRetiredAlgorithm = errors.New("vpatch: algorithm retired")

// retiredAlgorithms names the engines that earlier builds wrote under
// the algorithm numbers after AlgoAhoCorasick: two related-work
// matchers that no figure of the paper measures. Their numbers are
// never reused, so such a database fails to load rather than loading as
// another engine.
var retiredAlgorithms = [...]string{"Wu-Manber", "FFBF"}

func retiredError(name string) error {
	return fmt.Errorf("%w: %s is no longer built (use vpatch, spatch, dfc, vectordfc or ac)", ErrRetiredAlgorithm, name)
}

// widther is implemented by the vectorized engines.
type widther interface{ Width() int }

// VectorWidth returns the engine's vector width in 32-bit lanes, or 0
// for scalar engines.
func (e *Engine) VectorWidth() int {
	if w, ok := e.eng.(widther); ok {
		return w.Width()
	}
	return 0
}

// Serialize flattens the engine into a compiled database blob: the
// header and the pattern set.
func (e *Engine) Serialize() []byte {
	var pe dbfmt.Encoder
	patterns.EncodeSet(&pe, e.set)
	h := dbfmt.Header{
		Kind:      dbfmt.KindEngine,
		Algorithm: uint8(e.alg),
		Width:     uint8(e.VectorWidth()),
		Digest:    e.set.Digest(),
	}
	return dbfmt.Encode(h, []dbfmt.Section{{Tag: dbfmt.TagPatterns, Data: pe.Bytes()}})
}

// WriteTo writes the serialized engine to w (io.WriterTo).
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(e.Serialize())
	return int64(n), err
}

// Deserialize restores an Engine from a compiled database blob by
// compiling its pattern section at the header's algorithm and vector
// width, ignoring any engine section an older database carries. The
// returned Engine is goroutine-safe exactly like a Compile result; its
// matches are identical to the engine that was serialized, and it
// retains nothing of data.
func Deserialize(data []byte) (*Engine, error) {
	h, secs, err := dbfmt.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("vpatch: %w", err)
	}
	if h.Kind != dbfmt.KindEngine {
		if h.Kind == dbfmt.KindIDS {
			return nil, fmt.Errorf("vpatch: database holds an IDS rule-group database, not a single engine (load it with the ids package)")
		}
		return nil, fmt.Errorf("vpatch: unknown database kind %d", h.Kind)
	}
	alg := Algorithm(h.Algorithm)
	if alg > AlgoAhoCorasick {
		if i := int(alg - AlgoAhoCorasick - 1); i < len(retiredAlgorithms) {
			return nil, retiredError(retiredAlgorithms[i])
		}
		return nil, fmt.Errorf("vpatch: database compiled for unknown algorithm %d", h.Algorithm)
	}

	psec := dbfmt.FindSection(secs, dbfmt.TagPatterns)
	if psec == nil {
		return nil, fmt.Errorf("vpatch: database has no pattern section")
	}
	pd := dbfmt.NewDecoder(psec)
	set, err := patterns.DecodeSet(pd)
	if err != nil {
		return nil, fmt.Errorf("vpatch: pattern section: %w", err)
	}
	if err := pd.Finish(); err != nil {
		return nil, fmt.Errorf("vpatch: pattern section: %w", err)
	}
	if got := set.Digest(); got != h.Digest {
		return nil, fmt.Errorf("vpatch: pattern-set digest mismatch (header %#x, decoded %#x)", h.Digest, got)
	}

	out, err := Compile(set, Options{Algorithm: alg, VectorWidth: int(h.Width)})
	if err != nil {
		return nil, err
	}
	if w := out.VectorWidth(); w != int(h.Width) {
		return nil, fmt.Errorf("vpatch: header vector width %d disagrees with engine width %d", h.Width, w)
	}
	return out, nil
}

// ReadFrom reads a complete compiled database from r and restores the
// Engine. The whole database is buffered in memory (the format is
// CRC-checked as one unit).
func ReadFrom(r io.Reader) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("vpatch: reading database: %w", err)
	}
	return Deserialize(data)
}

// Info summarizes a compiled engine: what it matches and what it
// costs. Surfaced by the vpatch-compile and vpatch-bench tools.
type Info struct {
	// Algorithm is the engine's matching algorithm.
	Algorithm Algorithm
	// Patterns is the number of compiled patterns.
	Patterns int
	// MaxPatternLen is the longest pattern in bytes (stream carries and
	// shard overlaps are sized from it).
	MaxPatternLen int
	// VectorWidth is the lane count of vectorized engines, 0 otherwise.
	VectorWidth int
	// MemoryBytes estimates the resident size of the compiled state
	// (filters, automata, verification tables; excludes the pattern
	// set's own bytes).
	MemoryBytes int
	// SerializedBytes is the size of the engine's compiled database
	// (Serialize output), including the pattern set.
	SerializedBytes int
	// Accel describes the engine's skip-loop acceleration layer; the
	// zero value means the engine has none (DFC, Vector-DFC,
	// Aho-Corasick).
	Accel AccelInfo
	// Kernel is the extract kernel the engine's filtering round resolved
	// to at Compile/Deserialize time ("avx2", "swar"); empty
	// for engines without the kernel dispatch.
	Kernel string
}

// AccelInfo summarizes the hot-path acceleration of a filtering engine:
// which skip primitive compilation selected and how dense the rule
// set's start windows are (the quantity that decides whether skipping
// can pay — see the README's performance guide).
type AccelInfo struct {
	// Mode is the selected skip primitive: "index-byte"
	// (bytes.IndexByte over at most 2 possible start bytes),
	// "window-bitmap" (branchless L1-resident 2-byte-window bitmap), or
	// "off" (density above break-even, acceleration disabled, or an
	// engine without the layer).
	Mode string
	// Enabled reports whether scans actually use the skip loop.
	Enabled bool
	// WindowDensity is the fraction of the 2^16 possible 2-byte windows
	// that can start a candidate — the expected viable-position rate on
	// uniform traffic. StartBytes counts the byte values that can start
	// a candidate window (out of 256).
	WindowDensity float64
	StartBytes    int
}

// Info reports the engine's summary. It serializes the engine to
// measure SerializedBytes, so it is not free — call it for reporting,
// not per scan.
func (e *Engine) Info() Info {
	inf := Info{
		Algorithm:     e.alg,
		Patterns:      e.set.Len(),
		MaxPatternLen: e.set.MaxLen(),
		VectorWidth:   e.VectorWidth(),
	}
	if s, ok := e.eng.(engine.Sizer); ok {
		inf.MemoryBytes = s.MemoryFootprint()
	}
	if ar, ok := e.eng.(engine.AccelReporter); ok {
		ai := ar.AccelInfo()
		inf.Accel = AccelInfo{
			Mode:          ai.Mode,
			Enabled:       ai.Enabled,
			WindowDensity: ai.WindowDensity,
			StartBytes:    ai.StartBytes,
		}
	}
	if kr, ok := e.eng.(engine.KernelReporter); ok {
		inf.Kernel = kr.KernelInfo()
	}
	inf.SerializedBytes = len(e.Serialize())
	return inf
}

// String renders the info as one human-readable line.
func (i Info) String() string {
	w := ""
	if i.VectorWidth > 0 {
		w = fmt.Sprintf(" W=%d", i.VectorWidth)
	}
	a := ""
	if i.Accel.Mode != "" {
		a = fmt.Sprintf(", accel %s", i.Accel.Mode)
		if i.Accel.Enabled {
			a += fmt.Sprintf(" (density %.3f, %d start bytes)",
				i.Accel.WindowDensity, i.Accel.StartBytes)
		}
	}
	if i.Kernel != "" {
		a += fmt.Sprintf(", kernel %s", i.Kernel)
	}
	return fmt.Sprintf("%s%s: %d patterns (max len %d), %s compiled state, %s serialized%s",
		i.Algorithm, w, i.Patterns, i.MaxPatternLen,
		fmtBytes(i.MemoryBytes), fmtBytes(i.SerializedBytes), a)
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

package vpatch

import (
	"fmt"
)

// StreamMatch is one reported occurrence in an unbounded stream: the
// pattern's ID and the absolute stream offset of the occurrence. Stream
// offsets are 64-bit — a long-lived flow passes 2 GiB in seconds at the
// line rates the paper targets, so the in-buffer Match.Pos (int32)
// cannot carry them.
type StreamMatch struct {
	PatternID int32
	Pos       int64
}

// StreamEmitFunc receives stream matches with absolute 64-bit offsets.
type StreamEmitFunc func(StreamMatch)

// StreamScanner scans an unbounded byte stream delivered in chunks (the
// reassembled protocol stream of a NIDS), finding matches that span chunk
// boundaries. It keeps a carry of the last maxPatternLen-1 bytes of the
// stream; each Write scans carry+chunk and reports only matches that end
// inside the new bytes, so no match is missed or double-reported.
//
// Offsets in emitted matches are absolute 64-bit stream offsets.
type StreamScanner struct {
	scan     func(input []byte, c *Counters, emit EmitFunc)
	set      *PatternSet
	emit     StreamEmitFunc
	carry    []byte
	maxLen   int
	consumed int64 // total stream bytes fully processed (end of carry)
}

// newStreamScanner wires a scan function and its pattern set into the
// chunked-scanning state machine.
func newStreamScanner(scan func([]byte, *Counters, EmitFunc), set *PatternSet, emit StreamEmitFunc) (*StreamScanner, error) {
	if emit == nil {
		return nil, fmt.Errorf("vpatch: nil emit func")
	}
	maxLen := set.MaxLen()
	if maxLen < 1 {
		maxLen = 1
	}
	return &StreamScanner{
		scan:   scan,
		set:    set,
		emit:   emit,
		carry:  make([]byte, 0, (maxLen-1)*2),
		maxLen: maxLen,
	}, nil
}

// NewStreamScanner returns a scanner for one stream backed by this
// engine's pooled Scan path: safe to construct and Write from any
// goroutine (one goroutine per scanner at a time), at the cost of a
// scratch-pool round-trip per Write. emit receives every match with
// absolute 64-bit stream offsets; it must be non-nil.
func (e *Engine) NewStreamScanner(emit StreamEmitFunc) (*StreamScanner, error) {
	return newStreamScanner(e.Scan, e.set, emit)
}

// NewStreamScanner returns a scanner for one stream scanning through
// this session — the lowest-overhead form: one Session per goroutine,
// any number of StreamScanners (one per stream) on top of it. The
// scanner inherits the session's single-goroutine constraint.
func (s *Session) NewStreamScanner(emit StreamEmitFunc) (*StreamScanner, error) {
	return newStreamScanner(s.Scan, s.eng.set, emit)
}

// Write feeds the next chunk of the stream. It may be called with chunks
// of any size, including empty ones.
func (s *StreamScanner) Write(chunk []byte) (int, error) {
	if len(chunk) == 0 {
		return 0, nil
	}
	buf := append(s.carry, chunk...)
	carryLen := len(s.carry)
	base := s.consumed - int64(carryLen)

	// Matches that end at or before carryLen were already reported by an
	// earlier Write (they lie entirely within the carry).
	s.scan(buf, nil, func(m Match) {
		end := int(m.Pos) + s.set.Pattern(m.PatternID).Len()
		if end <= carryLen {
			return
		}
		s.emit(StreamMatch{PatternID: m.PatternID, Pos: base + int64(m.Pos)})
	})

	s.consumed += int64(len(chunk))
	keep := s.maxLen - 1
	if keep > len(buf) {
		keep = len(buf)
	}
	// Re-slice into the scanner-owned buffer so callers may reuse chunk.
	s.carry = append(s.carry[:0], buf[len(buf)-keep:]...)
	return len(chunk), nil
}

// Consumed returns the total number of stream bytes processed so far.
func (s *StreamScanner) Consumed() int64 { return s.consumed }

// Reset prepares the scanner for a new stream (carry and offsets clear).
func (s *StreamScanner) Reset() {
	s.carry = s.carry[:0]
	s.consumed = 0
}

package serve

// Segment wire format shared by the HTTP /v1/stream body and the raw
// TCP ingest port: a flat sequence of length-prefixed frames, one per
// captured segment, carrying exactly the fields of netsim.Segment. All
// integers are big-endian.
//
//	frame := u32 frameLen                  // bytes after this field
//	         u32 srcIP  u32 dstIP
//	         u16 srcPort u16 dstPort
//	         u32 seq
//	         u64 tsMicros
//	         u8  flags                     // netsim.FlagFIN / FlagRST
//	         payload[frameLen-25]
//
// The TCP ingest port prefixes the stream with one hello frame naming
// the tenant:
//
//	hello := u16 nameLen | name bytes
import (
	"encoding/binary"
	"fmt"
	"io"

	"vpatch/internal/arena"
	"vpatch/internal/netsim"
)

const (
	segFixedLen = 25 // fixed fields after the length prefix
	// MaxSegmentBytes caps one frame's payload: far above any MTU, low
	// enough that a corrupt length prefix cannot demand a giant
	// allocation.
	MaxSegmentBytes = 1 << 20
)

// AppendSegment appends seg's wire frame to dst.
func AppendSegment(dst []byte, seg netsim.Segment) []byte {
	var hdr [4 + segFixedLen]byte
	be := binary.BigEndian
	be.PutUint32(hdr[0:], uint32(segFixedLen+len(seg.Payload)))
	be.PutUint32(hdr[4:], seg.Flow.SrcIP)
	be.PutUint32(hdr[8:], seg.Flow.DstIP)
	be.PutUint16(hdr[12:], seg.Flow.SrcPort)
	be.PutUint16(hdr[14:], seg.Flow.DstPort)
	be.PutUint32(hdr[16:], seg.Seq)
	be.PutUint64(hdr[20:], seg.TsMicros)
	hdr[28] = seg.Flags
	dst = append(dst, hdr[:]...)
	return append(dst, seg.Payload...)
}

// EncodeSegments renders a batch of segments as one frame stream.
func EncodeSegments(segs []netsim.Segment) []byte {
	n := 0
	for i := range segs {
		n += 4 + segFixedLen + len(segs[i].Payload)
	}
	out := make([]byte, 0, n)
	for i := range segs {
		out = AppendSegment(out, segs[i])
	}
	return out
}

// ReadSegmentArena reads one frame from r into a chunk rented from a:
// the returned segment owns the chunk (Segment.Owned) and whoever
// consumes it releases it back to the pool, so a resident ingest loop
// reads frames without allocating. Callers that drop a segment without
// dispatching it must call ReleasePayload themselves. Returns io.EOF
// cleanly at a frame boundary; on any error no chunk stays rented.
func ReadSegmentArena(r io.Reader, a *arena.Arena) (netsim.Segment, error) {
	var pre [4]byte
	return readFrame(r, a, &pre)
}

// readFrame is ReadSegmentArena reading the length prefix into pre: a
// reader that owns pre for its lifetime reads frames without a heap
// allocation (a prefix array local to the call escapes through r).
func readFrame(r io.Reader, a *arena.Arena, pre *[4]byte) (netsim.Segment, error) {
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.EOF {
			return netsim.Segment{}, io.EOF
		}
		return netsim.Segment{}, fmt.Errorf("serve: frame length: %w", err)
	}
	frameLen := binary.BigEndian.Uint32(pre[:])
	if frameLen < segFixedLen {
		return netsim.Segment{}, fmt.Errorf("serve: frame of %d bytes is shorter than the %d-byte header", frameLen, segFixedLen)
	}
	if frameLen > segFixedLen+MaxSegmentBytes {
		return netsim.Segment{}, fmt.Errorf("serve: frame payload of %d bytes exceeds the %d-byte cap", frameLen-segFixedLen, MaxSegmentBytes)
	}
	b := a.Rent(int(frameLen))
	buf := b.Data()[:frameLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		b.Release()
		return netsim.Segment{}, fmt.Errorf("serve: frame body: %w", err)
	}
	seg := parseFrame(buf)
	seg.SetOwned(b)
	return seg, nil
}

// parseFrame decodes the fixed fields of a frame body; the payload
// aliases buf.
func parseFrame(buf []byte) netsim.Segment {
	be := binary.BigEndian
	return netsim.Segment{
		Flow: netsim.FlowKey{
			SrcIP:   be.Uint32(buf[0:]),
			DstIP:   be.Uint32(buf[4:]),
			SrcPort: be.Uint16(buf[8:]),
			DstPort: be.Uint16(buf[10:]),
		},
		Seq:      be.Uint32(buf[12:]),
		TsMicros: be.Uint64(buf[16:]),
		Flags:    buf[24],
		Payload:  buf[segFixedLen:],
	}
}

package serve

// Raw-TCP segment ingest: a long-lived alternative to POST /v1/stream
// for feeding capture pipelines into the daemon without HTTP framing
// overhead. A connection opens with a hello frame naming the tenant
// (see wire.go) and then carries segment frames until either side
// closes. Frames queue on the tenant's fair-scheduler lane and reach the
// tenant's one dispatcher, so a long-lived feed's flows keep their
// reassembly state across rule reloads and are scanned by the new rules
// from the swap on. A connection hands its frames over in batches held
// at most ingestBatchLinger from their first frame, so a quiet feed's
// alert leaves within that hold plus the dispatcher's
// ids.MaxAlertDelay. Connection robustness: frames that stall mid-read
// are bounded by ingestFrameTimeout, and connections idle past
// Config.IngestIdleTimeout are torn down (slow-loris defense).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"vpatch/internal/arena"
	"vpatch/internal/netsim"
	"vpatch/internal/resil/chaos"
)

const (
	// ingestPollInterval is how often an idle connection re-checks the
	// draining flag and its idle-timeout clock.
	ingestPollInterval = 500 * time.Millisecond
	// ingestFrameTimeout kills a connection that stalls mid-frame.
	ingestFrameTimeout = 30 * time.Second
	maxHelloLen        = 256
)

// ServeIngest accepts raw-TCP ingest connections on l until the
// listener closes or the server drains; Drain closes l, so ServeIngest
// returns as soon as Drain is called. Each connection runs on its own
// goroutine; Drain waits for all of them to finish.
func (s *Server) ServeIngest(l net.Listener) error {
	defer l.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-stop:
		case <-s.drainCh:
			l.Close()
		}
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if !s.trackIngest() {
			conn.Close()
			continue
		}
		go func() {
			defer s.ingestWG.Done()
			defer conn.Close()
			s.serveIngestConn(conn)
		}()
	}
}

// trackIngest counts a new connection into ingestWG unless the server
// is draining (see ingestMu).
func (s *Server) trackIngest() bool {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.ingestWG.Add(1)
	return true
}

// bufferedConn pairs a net.Conn with a peek buffer so the idle poll
// (deadline on the first byte of a frame) never loses mid-frame data.
type bufferedConn struct {
	c   net.Conn
	one [1]byte // waitByte's read target: no allocation per frame
	buf []byte  // the peeked-but-unconsumed byte (a view of one), or empty
	pre [4]byte // frame length prefixes (readSegment), read without allocating
}

func (b *bufferedConn) Read(p []byte) (int, error) {
	if len(b.buf) > 0 {
		n := copy(p, b.buf)
		b.buf = b.buf[n:]
		return n, nil
	}
	return b.c.Read(p)
}

// waitByte blocks until at least one byte is available (buffering it),
// the deadline d elapses (returns errIdle), or the peer closes.
var errIdle = errors.New("idle")

func (b *bufferedConn) waitByte(d time.Duration) error {
	if len(b.buf) > 0 {
		return nil
	}
	b.c.SetReadDeadline(time.Now().Add(d))
	n, err := b.c.Read(b.one[:])
	b.c.SetReadDeadline(time.Time{})
	if n > 0 {
		b.buf = b.one[:n]
		return nil
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return errIdle
	}
	return err
}

// readSegment reads one whole frame into a chunk rented from a.
func (b *bufferedConn) readSegment(a *arena.Arena) (netsim.Segment, error) {
	return readFrame(b, a, &b.pre)
}

// serveIngestConn drives one ingest connection. Errors are terminal for
// the connection only; the protocol has no in-band error channel, so a
// malformed stream simply closes.
func (s *Server) serveIngestConn(conn net.Conn) {
	bc := &bufferedConn{c: conn}

	// Hello frame: u16 nameLen | tenant name.
	conn.SetReadDeadline(time.Now().Add(ingestFrameTimeout))
	if _, err := io.ReadFull(bc, bc.pre[:2]); err != nil {
		return
	}
	nameLen := binary.BigEndian.Uint16(bc.pre[:2])
	if nameLen == 0 || nameLen > maxHelloLen {
		return
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(bc, name); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	t := s.Tenant(string(name))
	if t == nil {
		return
	}

	// Frames land in recycled arena chunks and queue on the tenant's
	// fair-scheduler lane in batches; a held batch is flushed on every
	// exit path.
	batch := &ingestBatch{s: s, t: t}
	defer batch.flush()
	idleSince := time.Now()
	for {
		// Wait for the next frame's first byte with a short deadline so
		// idle connections notice drains and idle-timeout promptly. A
		// non-empty batch waits only for what is left of its hold.
		for {
			err := bc.waitByte(batch.wait(ingestPollInterval))
			if err == nil {
				break
			}
			if err != errIdle {
				if err == io.EOF {
					// The feed ended cleanly: push everything through so
					// its buffered alerts surface now.
					batch.push()
				}
				return
			}
			batch.flush() // hold over, or idle: hand held segments on
			if s.draining.Load() {
				return
			}
			if d := s.cfg.IngestIdleTimeout; d > 0 && time.Since(idleSince) >= d {
				return // frame-less past the idle bound: slow-loris teardown
			}
		}
		idleSince = time.Now()
		// A frame has begun: bound its completion, then read it whole.
		conn.SetReadDeadline(idleSince.Add(ingestFrameTimeout))
		seg, err := bc.readSegment(s.arena)
		conn.SetReadDeadline(time.Time{})
		if err != nil {
			return
		}
		if chaos.Armed() {
			chaos.Fire(chaos.IngestFrame, t.name)
		}
		if !t.quota.TryTake(int64(4 + segFixedLen + len(seg.Payload))) {
			seg.ReleasePayload()
			continue // over quota: count the rejection, drop the frame
		}
		batch.add(seg)
	}
}

// DialIngest opens an ingest connection and sends the hello frame —
// the client half of ServeIngest, used by tests and examples.
func DialIngest(addr, tenant string) (net.Conn, error) {
	if len(tenant) == 0 || len(tenant) > maxHelloLen {
		return nil, fmt.Errorf("serve: bad tenant name length %d", len(tenant))
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hello := make([]byte, 2+len(tenant))
	binary.BigEndian.PutUint16(hello, uint16(len(tenant)))
	copy(hello[2:], tenant)
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

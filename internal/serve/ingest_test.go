package serve

// Bounded ingest-to-alert delay on both ingest paths, and the
// allocation-free raw-TCP frame read.

import (
	"bytes"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"vpatch/internal/arena"
	"vpatch/internal/netsim"
)

// quietServer returns a server whose default tenant scans for
// "http-attack-xyz" on two shards.
func quietServer(t *testing.T) *Server {
	t.Helper()
	srv := New(Config{})
	if _, err := srv.CreateTenant(DefaultTenant, TenantConfig{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Tenant(DefaultTenant).Reload(ruleBlob(t, "http-attack-xyz")); err != nil {
		t.Fatal(err)
	}
	return srv
}

// awaitAlerts waits up to 250 ms from since for the default tenant to
// count n alerts, failing the test otherwise.
func awaitAlerts(t *testing.T, srv *Server, n uint64, since time.Time) {
	t.Helper()
	ten := srv.Tenant(DefaultTenant)
	for ten.alerts.Load() < n {
		if time.Since(since) > 250*time.Millisecond {
			t.Fatalf("%d alerts 250 ms after the segment was sent, want %d", ten.alerts.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("alert after %v", time.Since(since))
}

// TestIngestQuietConnectionAlerts: a raw-TCP connection sends one
// matching segment (no FIN) and then stays open and quiet. Its alert
// arrives within a generous bound; nothing waits for a 64-frame batch,
// a shard watermark or the end of the feed.
func TestIngestQuietConnectionAlerts(t *testing.T) {
	srv := quietServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeIngest(ln) }()
	conn, err := DialIngest(ln.Addr().String(), DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	seg := netsim.Segment{
		Flow:    netsim.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 40000, DstPort: 80},
		Payload: []byte("quiet flow carries http-attack-xyz"),
	}
	sent := time.Now()
	if _, err := conn.Write(AppendSegment(nil, seg)); err != nil {
		t.Fatal(err)
	}
	awaitAlerts(t, srv, 1, sent)
	conn.Close()
	srv.Drain(5 * time.Second)
	if err := <-done; err != nil {
		t.Fatalf("ServeIngest: %v", err)
	}
}

// TestStreamSlowUploadHandsFramesOn: a /v1/stream upload sends a
// matching frame, pauses past the batch hold, sends a second frame and
// then stalls with its body unfinished. The second frame's arrival
// hands the held batch on, so the alert arrives while the upload is
// still open.
func TestStreamSlowUploadHandsFramesOn(t *testing.T) {
	srv := quietServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(5 * time.Second)

	hit := AppendSegment(nil, netsim.Segment{
		Flow:    netsim.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 40000, DstPort: 80},
		Payload: []byte("slow upload carries http-attack-xyz"),
	})
	other := AppendSegment(nil, netsim.Segment{
		Flow:    netsim.FlowKey{SrcIP: 3, DstIP: 2, SrcPort: 40001, DstPort: 80},
		Payload: []byte("nothing to see"),
	})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The declared body is longer than what is sent: the upload stays open.
	fmt.Fprintf(conn, "POST /v1/stream?tenant=%s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n",
		DefaultTenant, len(hit)+2*len(other))
	sent := time.Now()
	conn.Write(hit)
	time.Sleep(2 * ingestBatchLinger)
	conn.Write(other)
	awaitAlerts(t, srv, 1, sent)
}

// loopConn is a net.Conn whose reads replay one frame stream forever;
// its other methods are never called.
type loopConn struct {
	net.Conn
	data []byte
	off  int
}

func (c *loopConn) Read(p []byte) (int, error) {
	if c.off == len(c.data) {
		c.off = 0
	}
	n := copy(p, c.data[c.off:])
	c.off += n
	return n, nil
}

func (c *loopConn) SetReadDeadline(time.Time) error { return nil }

// TestIngestFrameReadAllocs is an allocation-regression gate: once warm,
// the raw-TCP connection's per-frame read (wait for the first byte, then
// read the whole frame into an arena chunk) allocates nothing.
func TestIngestFrameReadAllocs(t *testing.T) {
	frame := AppendSegment(nil, netsim.Segment{
		Flow:    netsim.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 40000, DstPort: 80},
		Payload: bytes.Repeat([]byte("x"), 64),
	})
	bc := &bufferedConn{c: &loopConn{data: frame}}
	a := arena.New(arena.Config{})
	read := func() {
		if err := bc.waitByte(time.Second); err != nil {
			t.Fatal(err)
		}
		seg, err := bc.readSegment(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg.Payload) != 64 {
			t.Fatalf("payload of %d bytes, want 64", len(seg.Payload))
		}
		seg.ReleasePayload()
	}
	for i := 0; i < 100; i++ {
		read()
	}
	if n := testing.AllocsPerRun(1000, read); n != 0 {
		t.Fatalf("raw-TCP frame read allocates %.2f times per frame", n)
	}
}

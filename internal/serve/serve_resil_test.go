package serve

// Overload-resilience tests for the daemon surface: ingest idle
// teardown, mid-frame connection resets, stalled /v1/stream uploads,
// follow-stream write deadlines/heartbeats and disconnects, fair
// scheduling across tenants under flood, and reload racing drain. Run
// under -race in CI.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vpatch/ids"
	"vpatch/internal/netsim"
)

// TestIngestIdleTeardown: a hello-then-silence connection (slow loris)
// is torn down once it idles past IngestIdleTimeout instead of holding
// a goroutine forever.
func TestIngestIdleTeardown(t *testing.T) {
	srv := New(Config{IngestIdleTimeout: 150 * time.Millisecond})
	if _, err := srv.CreateTenant(DefaultTenant, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Tenant(DefaultTenant).Reload(ruleBlob(t, "needle")); err != nil {
		t.Fatal(err)
	}
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
	defer conn.Close()
	// Send nothing further; the server must close on us. The teardown
	// clock is checked on the idle poll, so allow a couple of cycles.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection still open: read returned data")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("idle connection not torn down within 5s")
	}
	srv.Drain(5 * time.Second)
	<-done
}

// TestServeIngestReturnsOnDrain: with no connection open, ServeIngest
// returns within 50 ms of Drain, not on a poll tick.
func TestServeIngestReturnsOnDrain(t *testing.T) {
	srv := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan time.Time, 1)
	go func() {
		if err := srv.ServeIngest(ln); err != nil {
			t.Errorf("ServeIngest: %v", err)
		}
		done <- time.Now()
	}()
	time.Sleep(20 * time.Millisecond) // let ServeIngest reach Accept
	drained := time.Now()
	srv.Drain(5 * time.Second)
	select {
	case returned := <-done:
		if d := returned.Sub(drained); d > 50*time.Millisecond {
			t.Fatalf("ServeIngest returned %v after Drain, want <= 50ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeIngest still running 5 s after Drain")
	}
}

// TestIngestMidFrameReset: a connection that dies mid-frame (RST) must
// not lose the complete flows it carried earlier, leak the partial
// frame's buffer, or disturb a healthy connection on the same port.
func TestIngestMidFrameReset(t *testing.T) {
	srv := New(Config{})
	if _, err := srv.CreateTenant(DefaultTenant, TenantConfig{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Tenant(DefaultTenant).Reload(ruleBlob(t, "http-attack-xyz")); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeIngest(ln) }()

	// Doomed connection: two good flows, then half a frame, then RST.
	doomed, err := DialIngest(ln.Addr().String(), DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	var feed []byte
	for i := 0; i < 2; i++ {
		k := netsim.FlowKey{SrcIP: uint32(100 + i), DstIP: 7, SrcPort: uint16(i + 1), DstPort: 80}
		feed = append(feed, EncodeSegments(flowSegments(k, []byte("carries http-attack-xyz payload")))...)
	}
	partial := AppendSegment(nil, netsim.Segment{
		Flow:    netsim.FlowKey{SrcIP: 999, DstIP: 7, SrcPort: 9, DstPort: 80},
		Payload: bytes.Repeat([]byte{'x'}, 512),
	})
	feed = append(feed, partial[:len(partial)/2]...)
	if _, err := doomed.Write(feed); err != nil {
		t.Fatal(err)
	}
	if tc, ok := doomed.(*net.TCPConn); ok {
		tc.SetLinger(0) // close sends RST, the mid-frame reset
	}
	doomed.Close()

	// Healthy connection, racing the doomed one's teardown.
	healthy, err := DialIngest(ln.Addr().String(), DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	const healthyFlows = 8
	for i := 0; i < healthyFlows; i++ {
		k := netsim.FlowKey{SrcIP: uint32(200 + i), DstIP: 7, SrcPort: uint16(i + 1), DstPort: 80}
		if _, err := healthy.Write(EncodeSegments(flowSegments(k, []byte("also http-attack-xyz here")))); err != nil {
			t.Fatal(err)
		}
	}
	healthy.Close()

	// The doomed connection's alerts may only surface at the drain
	// flush, so this pre-drain wait is best-effort and short.
	const want = 2 + healthyFlows
	deadline := time.Now().Add(2 * time.Second)
	for srv.Tenant(DefaultTenant).alerts.Load() < want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	rep := srv.Drain(10 * time.Second)
	<-done
	if got := rep.Tenants[DefaultTenant].Alerts; got != want {
		t.Fatalf("alerts after mid-frame reset = %d, want %d", got, want)
	}
	if !rep.Clean {
		t.Fatalf("dirty drain after reset: %+v", rep)
	}
}

// TestStreamFrameDeadline: a /v1/stream upload that stalls mid-frame is
// torn down by the per-frame read deadline instead of pinning the
// handler goroutine indefinitely.
func TestStreamFrameDeadline(t *testing.T) {
	srv := New(Config{StreamFrameTimeout: 150 * time.Millisecond})
	if _, err := srv.CreateTenant(DefaultTenant, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Tenant(DefaultTenant).Reload(ruleBlob(t, "needle")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(5 * time.Second)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Declare a body, deliver half a length prefix, stall: slow loris.
	fmt.Fprintf(conn, "POST /v1/stream?tenant=%s HTTP/1.1\r\nHost: t\r\nContent-Length: 400\r\n\r\n", DefaultTenant)
	conn.Write([]byte{0, 0})

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no response to the stalled upload (handler still pinned?): %v", err)
	}
	if !strings.Contains(line, "400") {
		t.Fatalf("stalled upload answered %q; want a 400 teardown", strings.TrimSpace(line))
	}
}

// TestFollowHeartbeatAndDisconnect: an idle follow stream carries
// newline heartbeats, and a follower that disconnects mid-stream is
// unsubscribed promptly while publishing continues undisturbed.
func TestFollowHeartbeatAndDisconnect(t *testing.T) {
	srv := New(Config{
		FollowHeartbeat:    30 * time.Millisecond,
		FollowWriteTimeout: 2 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Phase 1: heartbeats on an idle stream.
	resp, err := http.Get(ts.URL + "/v1/alerts?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	newlines := 0
	deadline := time.Now().Add(5 * time.Second)
	for newlines < 3 && time.Now().Before(deadline) {
		n, err := resp.Body.Read(buf)
		newlines += bytes.Count(buf[:n], []byte{'\n'})
		if err != nil {
			break
		}
	}
	if newlines < 3 {
		t.Fatalf("idle follow stream delivered %d heartbeats in 5s; want >=3", newlines)
	}

	// Phase 2: alerts are streaming; the follower vanishes mid-stream.
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		batch := make([]ids.Alert, 4)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				for j := range batch {
					batch[j] = ids.Alert{PatternID: int32(i), RuleID: -1, StreamOffset: int64(j)}
				}
				srv.alertHub.publishBatch("load", 1, nil, batch)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Read a little of the live stream, then drop the connection.
	resp.Body.Read(buf)
	resp.Body.Close()

	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, subs, _ := srv.alertHub.stats(); subs == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, subs, _ := srv.alertHub.stats(); subs != 0 {
		t.Fatalf("follower not unsubscribed after disconnect: %d subscribers", subs)
	}
	close(stop)
	pubWG.Wait()
	srv.Drain(5 * time.Second)
}

// TestIngestFairnessTwoTenants: while one tenant floods /v1/stream from
// several connections, a second tenant's modest feed is fully served —
// zero scheduler drops and every alert delivered. The byte-share bound
// itself is proven deterministically in internal/resil; this is the
// end-to-end wiring check.
func TestIngestFairnessTwoTenants(t *testing.T) {
	srv := New(Config{
		TenantDefaults:    TenantConfig{Shards: 2},
		SchedQuantumBytes: 32 << 10,
		IngestQueueBytes:  256 << 10,
	})
	for _, name := range []string{"victim", "attacker"} {
		if _, err := srv.CreateTenant(name, TenantConfig{}); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Tenant(name).Reload(ruleBlob(t, "http-attack-xyz")); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The attack: several connections pumping junk frames at the
	// attacker tenant for the whole duration of the victim's feed.
	stop := make(chan struct{})
	var atkWG sync.WaitGroup
	junk := make([]netsim.Segment, 0, 64)
	for i := 0; i < 64; i++ {
		junk = append(junk, netsim.Segment{
			Flow:    netsim.FlowKey{SrcIP: 0xBAD, DstIP: 1, SrcPort: uint16(i + 1), DstPort: 80},
			Seq:     uint32(i * 1400),
			Payload: bytes.Repeat([]byte{'z'}, 1400),
		})
	}
	junkBody := EncodeSegments(junk)
	for w := 0; w < 4; w++ {
		atkWG.Add(1)
		go func() {
			defer atkWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					resp, err := http.Post(ts.URL+"/v1/stream?tenant=attacker",
						"application/octet-stream", bytes.NewReader(junkBody))
					if err != nil {
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	// The victim: 40 small flows, each its own request with flush=1, all
	// of which must be accepted and alerted despite the flood.
	const victimFlows = 40
	for i := 0; i < victimFlows; i++ {
		k := netsim.FlowKey{SrcIP: uint32(5000 + i), DstIP: 9, SrcPort: uint16(i + 1), DstPort: 80}
		body := EncodeSegments(flowSegments(k, []byte("victim flow with http-attack-xyz inside")))
		resp, out := postBytes(t, ts.URL+"/v1/stream?tenant=victim&flush=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("victim stream %d: %d %s", i, resp.StatusCode, out)
		}
		var sr streamResponse
		if err := json.Unmarshal(out, &sr); err != nil {
			t.Fatalf("victim stream %d: bad response %s", i, out)
		}
		if sr.DroppedBatches != 0 {
			t.Fatalf("victim stream %d: %d batches shed under attack; want 0", i, sr.DroppedBatches)
		}
	}
	close(stop)
	atkWG.Wait()

	if got := srv.Tenant("victim").alerts.Load(); got != victimFlows {
		t.Fatalf("victim alerts = %d, want %d (lost service under flood)", got, victimFlows)
	}
	vst := srv.sched.TenantStats("victim")
	if vst.DroppedBatches != 0 {
		t.Fatalf("scheduler shed %d victim batches; want 0", vst.DroppedBatches)
	}

	// The new resilience and scheduler families must be on /metrics and
	// the exposition must stay well-formed.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	checkPromText(t, string(text))
	for _, fam := range []string{
		"vpatch_sched_dispatched_bytes_total", "vpatch_sched_dropped_batches_total",
		"vpatch_degraded_flows_total", "vpatch_verifier_budget_exhausted_total",
		"vpatch_panics_recovered_total", "vpatch_flows_quarantined_total",
	} {
		if !strings.Contains(string(text), fam) {
			t.Fatalf("metrics missing family %s", fam)
		}
	}
	srv.Drain(10 * time.Second)
}

// TestReloadDrainShutdownRace: rule reloads swapping the engine under
// the tenant's shards while stream traffic and Drain race them — no
// deadlock, no panic, a clean drain that a second Drain re-reports.
// Race-pinned in CI.
func TestReloadDrainShutdownRace(t *testing.T) {
	srv := New(Config{TenantDefaults: TenantConfig{Shards: 2}})
	if _, err := srv.CreateTenant(DefaultTenant, TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	blob := ruleBlob(t, "http-attack-xyz")
	if _, err := srv.Tenant(DefaultTenant).Reload(blob); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(3)
	go func() { // reloader
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			srv.Tenant(DefaultTenant).Reload(blob) // errors fine once draining
		}
	}()
	go func() { // streamer
		defer wg.Done()
		<-start
		for i := 0; i < 30; i++ {
			k := netsim.FlowKey{SrcIP: uint32(i), DstIP: 3, SrcPort: uint16(i + 1), DstPort: 80}
			body := EncodeSegments(flowSegments(k, []byte("racing http-attack-xyz traffic")))
			resp, err := http.Post(ts.URL+"/v1/stream?tenant="+DefaultTenant,
				"application/octet-stream", bytes.NewReader(body))
			if err != nil {
				return // server draining under us is expected
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	var rep DrainReport
	go func() { // drainer, racing everyone
		defer wg.Done()
		<-start
		time.Sleep(5 * time.Millisecond)
		rep = srv.Drain(10 * time.Second)
	}()
	close(start)
	wg.Wait()
	if !rep.Clean {
		t.Fatalf("dirty drain out of the reload race: %+v", rep)
	}
	// A second drain re-reports without hanging.
	srv.Drain(time.Second)
}

package serve

// Alert-stream tests: the wire bytes of the three alert outputs, and
// the counted gates on the hub's batch publish (no allocation, one
// contiguous sequence run per batch under concurrent publishers).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vpatch/ids"
	"vpatch/internal/netsim"
)

// goldenAlertLines are the JSON lines one literal alert and one rule
// alert encode to, byte for byte as earlier releases wrote them.
var goldenAlertLines = []string{
	`{"seq":0,"tenant":"lit","generation":1,"rule":-1,"pattern":0,"proto":"tcp","src_ip":"10.0.0.1","src_port":40001,"dst_ip":"192.168.0.1","dst_port":80,"stream_off":8}`,
	`{"seq":1,"tenant":"default","generation":1,"sid":1001,"msg":"admin token","rule":0,"pattern":-1,"proto":"tcp","src_ip":"10.0.0.1","src_port":40002,"dst_ip":"172.16.255.254","dst_port":80,"stream_off":29}`,
}

// TestAlertRecordGoldenBytes: a literal alert and a rule alert reach
// the GET /v1/alerts replay, a ?follow=1 stream and a SubscribeAlerts
// sink as exactly the golden JSON lines.
func TestAlertRecordGoldenBytes(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sink, cancel := srv.SubscribeAlerts()
	defer cancel()
	fresp, err := http.Get(ts.URL + "/v1/alerts?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	followed := make(chan string, len(goldenAlertLines))
	go func() {
		r := bufio.NewReader(fresp.Body)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				close(followed)
				return
			}
			if line != "\n" { // heartbeat filler
				followed <- line
			}
		}
	}()

	for _, up := range []struct {
		tenant string
		db     []byte
	}{
		{"lit", ruleBlob(t, "http-attack-xyz")},
		{"default", ruleSemBlob(t, `alert tcp any any -> any 80 (msg:"admin token"; `+
			`content:"admin"; nocase; content:"token="; distance:0; within:200; `+
			`pcre:"/[a-f0-9]{8}/"; sid:1001;)`+"\n")},
	} {
		if resp, body := postBytes(t, ts.URL+"/v1/tenants/"+up.tenant+"/rules", up.db); resp.StatusCode != http.StatusOK {
			t.Fatalf("rules upload %s: %d %s", up.tenant, resp.StatusCode, body)
		}
	}
	for _, st := range []struct {
		tenant  string
		k       netsim.FlowKey
		payload string
	}{
		{"lit", netsim.FlowKey{SrcIP: 0x0A000001, DstIP: 0xC0A80001, SrcPort: 40001, DstPort: 80},
			"padding http-attack-xyz padding"},
		{"default", netsim.FlowKey{SrcIP: 0x0A000001, DstIP: 0xAC10FFFE, SrcPort: 40002, DstPort: 80},
			"GET /aDmIn HTTP/1.1\r\nCookie: token=deadbeef\r\n\r\n"},
	} {
		segs := flowSegments(st.k, []byte(st.payload))
		if resp, body := postBytes(t, ts.URL+"/v1/stream?flush=1&tenant="+st.tenant, EncodeSegments(segs)); resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %s: %d %s", st.tenant, resp.StatusCode, body)
		}
	}

	want := ""
	for _, l := range goldenAlertLines {
		want += l + "\n"
	}
	check := func(output, got string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %q\nwant %q", output, got, want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	check("GET /v1/alerts", string(body))

	got := ""
	for range goldenAlertLines {
		select {
		case line, ok := <-followed:
			if !ok {
				t.Fatal("follow stream ended early")
			}
			got += line
		case <-time.After(5 * time.Second):
			t.Fatalf("follow stream: timed out after %q", got)
		}
	}
	check("GET /v1/alerts?follow=1", got)

	got = ""
	for range goldenAlertLines {
		select {
		case rec := <-sink:
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			got += string(b) + "\n"
		case <-time.After(5 * time.Second):
			t.Fatalf("SubscribeAlerts: timed out after %q", got)
		}
	}
	check("SubscribeAlerts", got)
}

// testBatch fills a batch of n literal alerts whose pattern id tags
// the batch and whose stream offset is the alert's index in it.
func testBatch(batch []ids.Alert, n int, tag int32) []ids.Alert {
	batch = batch[:0]
	for i := 0; i < n; i++ {
		batch = append(batch, ids.Alert{
			Flow:         netsim.FlowKey{SrcIP: uint32(i), DstIP: 7, SrcPort: uint16(i), DstPort: 80},
			StreamOffset: int64(i), PatternID: tag, RuleID: -1,
		})
	}
	return batch
}

// TestPublishBatchZeroAlloc: publishing a 64-alert batch — resolving,
// sequencing and buffering every record — allocates nothing.
func TestPublishBatchZeroAlloc(t *testing.T) {
	h := newAlertHub()
	batch := testBatch(nil, 64, 1)
	if n := testing.AllocsPerRun(200, func() { h.publishBatch("t", 1, nil, batch) }); n != 0 {
		t.Fatalf("publishBatch of %d alerts: %v allocations per call, want 0", len(batch), n)
	}
}

// TestPublishBatchSeqContiguous: two goroutines publish batches of
// random sizes concurrently; every batch's records carry one contiguous
// run of sequence numbers, in batch order, and the runs tile 0..N-1
// with no gap or duplicate.
func TestPublishBatchSeqContiguous(t *testing.T) {
	const publishers, batches, maxBatch = 2, 300, 50
	h := newAlertHub()
	sub := make(chan AlertRecord, publishers*batches*maxBatch)
	h.subs[sub] = struct{}{}
	sizes := make([][]int, publishers)
	var wg sync.WaitGroup
	for p := range sizes {
		rng := rand.New(rand.NewSource(int64(p + 1)))
		for b := 0; b < batches; b++ {
			sizes[p] = append(sizes[p], 1+rng.Intn(maxBatch))
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var batch []ids.Alert
			for b, n := range sizes[p] {
				batch = testBatch(batch, n, int32(b))
				h.publishBatch(fmt.Sprint("pub", p), 1, nil, batch)
			}
		}(p)
	}
	wg.Wait()
	close(sub)

	type batchID struct {
		tenant string
		tag    int32
	}
	runs := map[batchID][]uint64{}
	seqs := map[uint64]bool{}
	for rec := range sub {
		id := batchID{rec.Tenant, rec.Pattern}
		if int(rec.StreamOff) != len(runs[id]) {
			t.Fatalf("batch %+v: record %d arrived at position %d", id, rec.StreamOff, len(runs[id]))
		}
		runs[id] = append(runs[id], rec.Seq)
		if seqs[rec.Seq] {
			t.Fatalf("sequence number %d assigned twice", rec.Seq)
		}
		seqs[rec.Seq] = true
	}
	total := 0
	for p := range sizes {
		for b, n := range sizes[p] {
			run := runs[batchID{fmt.Sprint("pub", p), int32(b)}]
			if len(run) != n {
				t.Fatalf("publisher %d batch %d: %d records, want %d", p, b, len(run), n)
			}
			for i, seq := range run {
				if seq != run[0]+uint64(i) {
					t.Fatalf("publisher %d batch %d: sequence run %v is not contiguous", p, b, run)
				}
			}
			total += n
		}
	}
	for seq := uint64(0); seq < uint64(total); seq++ {
		if !seqs[seq] {
			t.Fatalf("sequence number %d missing (of %d records)", seq, total)
		}
	}
	if _, _, lost := h.stats(); lost != 0 {
		t.Fatalf("%d records lost on an unbounded follower", lost)
	}

	// Without a follower, a batch longer than the ring still reserves
	// its whole run, and the ring replays exactly its newest records.
	delete(h.subs, sub)
	long := testBatch(nil, 3*alertRingSize+5, -1)
	h.publishBatch("long", 1, nil, long)
	replay := h.buffered()
	if len(replay) != alertRingSize {
		t.Fatalf("ring holds %d records, want %d", len(replay), alertRingSize)
	}
	for i, rec := range replay {
		idx := len(long) - alertRingSize + i
		if rec.Tenant != "long" || rec.StreamOff != int64(idx) || rec.Seq != uint64(total+idx) {
			t.Fatalf("replay[%d] = %+v, want batch record %d with seq %d", i, rec, idx, total+idx)
		}
	}
}

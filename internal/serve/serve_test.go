package serve

// Daemon tests: wire round-trip, HTTP endpoint lifecycle, the hot-swap
// reload property (no lost and no duplicated alerts across concurrent
// rule swaps), /metrics validity under concurrent scrape-and-ingest
// load, and the raw-TCP ingest port. Run under -race in CI.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/arena"
	"vpatch/internal/netsim"
)

// ruleBlob compiles an HTTP-protocol rule set into a serialized .vpdb
// blob, the unit of hot reload.
func ruleBlob(t testing.TB, pats ...string) []byte {
	t.Helper()
	set := vpatch.NewPatternSet()
	for _, p := range pats {
		set.Add([]byte(p), false, vpatch.ProtoHTTP)
	}
	eng, err := ids.NewEngine(set, vpatch.Options{}, func(ids.Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.WriteDB(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flowSegments builds one complete in-order flow carrying payload,
// split across a few segments with FIN on the last.
func flowSegments(k netsim.FlowKey, payload []byte) []netsim.Segment {
	var segs []netsim.Segment
	seq := uint32(0)
	for len(payload) > 0 {
		n := 19 // odd size so patterns straddle segment boundaries
		if n > len(payload) {
			n = len(payload)
		}
		segs = append(segs, netsim.Segment{Flow: k, Seq: seq, Payload: payload[:n]})
		seq += uint32(n)
		payload = payload[n:]
	}
	if len(segs) == 0 {
		segs = append(segs, netsim.Segment{Flow: k})
	}
	segs[len(segs)-1].Flags = netsim.FlagFIN
	return segs
}

func TestWireRoundTrip(t *testing.T) {
	segs := []netsim.Segment{
		{Flow: netsim.FlowKey{SrcIP: 0x0A000001, DstIP: 0xC0A80001, SrcPort: 40001, DstPort: 80},
			Seq: 7, TsMicros: 123456789, Payload: []byte("hello wire")},
		{Flow: netsim.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4},
			Seq: 0xFFFFFFF0, Flags: netsim.FlagFIN, Payload: nil},
		{Flow: netsim.FlowKey{DstPort: 53}, Flags: netsim.FlagRST, Payload: bytes.Repeat([]byte{0xAB}, 1500)},
	}
	a := arena.New(arena.Config{})
	read := func(r io.Reader) (netsim.Segment, error) { return ReadSegmentArena(r, a) }
	r := bytes.NewReader(EncodeSegments(segs))
	var decoded []netsim.Segment
	for i, want := range segs {
		got, err := read(r)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if !got.Owned() {
			t.Fatalf("segment %d does not own its arena chunk", i)
		}
		decoded = append(decoded, got)
		got.SetOwned(nil) // compare the fields, not the chunk handle
		if len(want.Payload) == 0 {
			if len(got.Payload) != 0 {
				t.Fatalf("segment %d: unexpected payload", i)
			}
			want.Payload, got.Payload = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("segment %d round-trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := read(r); err != io.EOF {
		t.Fatalf("want clean EOF at frame boundary, got %v", err)
	}
	if n := a.Stats().InUse; n != int64(len(segs)) {
		t.Fatalf("%d chunks in use for %d decoded segments", n, len(segs))
	}
	for i := range decoded {
		decoded[i].ReleasePayload()
	}

	// Mid-frame truncation is an error, not EOF.
	enc := EncodeSegments(segs[:1])
	if _, err := read(bytes.NewReader(enc[:len(enc)-3])); err == nil || err == io.EOF {
		t.Fatalf("truncated frame: want a real error, got %v", err)
	}
	// A frame shorter than its fixed header is rejected.
	var bad [4]byte
	bad[3] = segFixedLen - 1
	if _, err := read(bytes.NewReader(bad[:])); err == nil {
		t.Fatal("undersized frame accepted")
	}
	// A corrupt length prefix cannot demand a giant allocation.
	huge := []byte{0x7F, 0xFF, 0xFF, 0xFF}
	if _, err := read(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Released segments and every error path leave no chunk rented.
	if n := a.Stats().InUse; n != 0 {
		t.Fatalf("%d arena chunks still in use after release and errors", n)
	}
}

func postBytes(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

func TestHTTPLifecycle(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}

	if resp, _ := get("/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != 503 {
		t.Fatalf("readyz before rules: want 503, got %d", resp.StatusCode)
	}
	if resp, _ := get("/nope"); resp.StatusCode != 404 {
		t.Fatalf("unknown path: want 404, got %d", resp.StatusCode)
	}

	// Rules upload auto-creates the default tenant.
	resp, body := postBytes(t, ts.URL+"/v1/tenants/default/rules", ruleBlob(t, "http-attack-xyz"))
	if resp.StatusCode != 200 {
		t.Fatalf("rules upload: %d %s", resp.StatusCode, body)
	}
	var rr struct {
		Generation uint64 `json:"generation"`
		Rules      int    `json:"rules"`
	}
	if err := json.Unmarshal(body, &rr); err != nil || rr.Generation != 1 || rr.Rules != 1 {
		t.Fatalf("rules reply %s (err %v)", body, err)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz after rules: %d", resp.StatusCode)
	}

	// A corrupt blob is rejected and the generation stays.
	blob := ruleBlob(t, "http-attack-xyz")
	blob[len(blob)/2] ^= 0xFF
	if resp, _ := postBytes(t, ts.URL+"/v1/tenants/default/rules", blob); resp.StatusCode != 422 {
		t.Fatalf("corrupt rules: want 422, got %d", resp.StatusCode)
	}

	// One-shot scan.
	resp, body = postBytes(t, ts.URL+"/v1/scan?port=80", []byte("xx http-attack-xyz yy http-attack-xyz"))
	if resp.StatusCode != 200 {
		t.Fatalf("scan: %d %s", resp.StatusCode, body)
	}
	var sr scanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Generation != 1 || len(sr.Matches) != 2 || sr.Matches[0].Offset != 3 {
		t.Fatalf("scan reply %+v", sr)
	}

	// Stream a complete flow with flush: the alert must be visible in
	// the response's cumulative count.
	segs := flowSegments(netsim.FlowKey{SrcIP: 9, DstIP: 8, SrcPort: 1234, DstPort: 80},
		[]byte("padding padding http-attack-xyz padding"))
	resp, body = postBytes(t, ts.URL+"/v1/stream?flush=1", EncodeSegments(segs))
	if resp.StatusCode != 200 {
		t.Fatalf("stream: %d %s", resp.StatusCode, body)
	}
	var str streamResponse
	if err := json.Unmarshal(body, &str); err != nil {
		t.Fatal(err)
	}
	if str.Segments != len(segs) || str.AlertsTotal != 1 {
		t.Fatalf("stream reply %+v, want %d segments and 1 alert", str, len(segs))
	}

	// Named tenant with a byte quota: isolated rules, 429 past budget.
	cfg, _ := json.Marshal(TenantConfig{QuotaBytesPerSec: 1, QuotaBurstBytes: 64})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/tenants/acme", bytes.NewReader(cfg))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 201 {
		t.Fatalf("tenant create: %d", resp2.StatusCode)
	}
	if resp, _ := postBytes(t, ts.URL+"/v1/scan?tenant=acme&port=80", []byte("x")); resp.StatusCode != 409 {
		t.Fatalf("scan without rules: want 409, got %d", resp.StatusCode)
	}
	if resp, _ := postBytes(t, ts.URL+"/v1/tenants/acme/rules", ruleBlob(t, "acme-only")); resp.StatusCode != 200 {
		t.Fatalf("acme rules: %d", resp.StatusCode)
	}
	// Default tenant's rules must not leak into acme.
	resp, body = postBytes(t, ts.URL+"/v1/scan?tenant=acme&port=80", []byte("http-attack-xyz acme-only"))
	if resp.StatusCode != 200 {
		t.Fatalf("acme scan: %d %s", resp.StatusCode, body)
	}
	sr = scanResponse{}
	json.Unmarshal(body, &sr)
	if len(sr.Matches) != 1 {
		t.Fatalf("acme scan must hit only its own rule: %+v", sr)
	}
	// 25 bytes spent of a 64-byte burst at 1 B/s: the next scan breaks
	// the budget.
	if resp, _ = postBytes(t, ts.URL+"/v1/scan?tenant=acme&port=80", bytes.Repeat([]byte("x"), 64)); resp.StatusCode != 429 {
		t.Fatalf("over-quota scan: want 429, got %d", resp.StatusCode)
	}
	if resp, _ := get("/v1/tenants/acme"); resp.StatusCode != 200 {
		t.Fatalf("tenant detail: %d", resp.StatusCode)
	}
	var acme *Tenant
	if acme = srv.Tenant("acme"); acme.quota.Denied() != 1 {
		t.Fatalf("quota rejections = %d, want 1", acme.quota.Denied())
	}

	// Tenant names that would break Prometheus labels are rejected.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+`/v1/tenants/bad"name`, nil)
	resp2, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 409 {
		t.Fatalf(`tenant "bad\"name": want 409, got %d`, resp2.StatusCode)
	}

	// Metrics render validly with traffic on the books.
	_, body = get("/metrics")
	checkPromText(t, string(body))
	if !strings.Contains(string(body), `vpatch_alerts_total{tenant="default"} 1`) {
		t.Fatalf("metrics missing default tenant alert count:\n%s", body)
	}
	for _, fam := range []string{
		"vpatch_arena_chunks_in_use", "vpatch_arena_chunks_peak",
		"vpatch_arena_pooled_bytes", "vpatch_arena_overflow_total",
	} {
		if !strings.Contains(string(body), fam) {
			t.Fatalf("metrics missing arena gauge %s:\n%s", fam, body)
		}
	}

	// Delete drains the named tenant.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/tenants/acme", nil)
	resp2, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 || !strings.Contains(string(out), `"drained":true`) {
		t.Fatalf("tenant delete: %d %s", resp2.StatusCode, out)
	}

	// Drain: residuals reported, data plane gated, health still up.
	resp, body = postBytes(t, ts.URL+"/drain", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	var rep DrainReport
	if err := json.Unmarshal(body, &rep); err != nil || !rep.Clean {
		t.Fatalf("drain report %s (err %v)", body, err)
	}
	if d := rep.Tenants["default"]; d.Alerts != 1 || d.FlowsClosed != 1 {
		t.Fatalf("default drain tally %+v, want 1 alert and 1 closed flow", rep.Tenants["default"])
	}
	if resp, _ := postBytes(t, ts.URL+"/v1/scan?port=80", []byte("x")); resp.StatusCode != 503 {
		t.Fatalf("scan while draining: want 503, got %d", resp.StatusCode)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != 503 {
		t.Fatalf("readyz while draining: want 503, got %d", resp.StatusCode)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
}

// TestReloadProperty is the hot-swap acceptance property: under
// concurrent ingestion with repeated rule reloads, every complete flow
// carrying a pattern produces exactly one alert — none lost to a swap,
// none duplicated by the flush each swap runs on the old rules — and
// /metrics stays valid and monotonic throughout.
func TestReloadProperty(t *testing.T) {
	type flowAlerts struct {
		sync.Mutex
		n map[netsim.FlowKey]int
	}
	seen := &flowAlerts{n: make(map[netsim.FlowKey]int)}
	srv := New(Config{OnAlert: func(_ string, _ uint64, a ids.Alert) {
		seen.Lock()
		seen.n[a.Flow]++
		seen.Unlock()
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Both databases contain the sentinel pattern, so a flow matches
	// exactly once no matter which generation scans it.
	blobs := [][]byte{
		ruleBlob(t, "http-attack-xyz", "gen-even-filler"),
		ruleBlob(t, "http-attack-xyz", "gen-odd-filler", "second-odd-rule"),
	}
	if resp, body := postBytes(t, ts.URL+"/v1/tenants/default/rules", blobs[0]); resp.StatusCode != 200 {
		t.Fatalf("initial rules: %d %s", resp.StatusCode, body)
	}

	const (
		workers      = 4
		flowsPerReq  = 8
		reqPerWorker = 25
		swaps        = 6
	)
	var gens sync.Map // generation number -> struct{}
	var wg sync.WaitGroup
	var sent atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < reqPerWorker; r++ {
				var enc []byte
				for f := 0; f < flowsPerReq; f++ {
					k := netsim.FlowKey{
						SrcIP:   uint32(w)<<20 | uint32(r)<<8 | uint32(f),
						DstIP:   0xC0A80001,
						SrcPort: uint16(40000 + w),
						DstPort: 80,
					}
					payload := fmt.Sprintf("w%d r%d f%d padding http-attack-xyz trailing bytes", w, r, f)
					for _, s := range flowSegments(k, []byte(payload)) {
						enc = AppendSegment(enc, s)
					}
				}
				resp, body := postBytes(t, ts.URL+"/v1/stream?flush=1", enc)
				if resp.StatusCode != 200 {
					t.Errorf("stream: %d %s", resp.StatusCode, body)
					return
				}
				var str streamResponse
				if err := json.Unmarshal(body, &str); err != nil {
					t.Error(err)
					return
				}
				gens.Store(str.Generation, struct{}{})
				sent.Add(flowsPerReq)
			}
		}(w)
	}

	// Swapper: six hot reloads while the workers stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			time.Sleep(3 * time.Millisecond)
			resp, body := postBytes(t, ts.URL+"/v1/tenants/default/rules", blobs[i%2])
			if resp.StatusCode != 200 {
				t.Errorf("swap %d: %d %s", i, resp.StatusCode, body)
			}
		}
	}()

	// Scraper: /metrics must stay valid and the alert counter monotonic
	// while generations come and go.
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		var prev float64
		for {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			checkPromText(t, string(body))
			v, ok := promValue(string(body), `vpatch_alerts_total{tenant="default"}`)
			if ok && v < prev {
				t.Errorf("vpatch_alerts_total went backwards: %v after %v", v, prev)
				return
			}
			if ok {
				prev = v
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-scraperDone
	if t.Failed() {
		t.FailNow()
	}

	rep := srv.Drain(10 * time.Second)
	if !rep.Clean {
		t.Fatalf("dirty drain: %+v", rep)
	}

	want := int(sent.Load())
	seen.Lock()
	defer seen.Unlock()
	total := 0
	for k, n := range seen.n {
		total += n
		if n != 1 {
			t.Errorf("flow %+v alerted %d times, want exactly 1", k, n)
		}
	}
	if len(seen.n) != want || total != want {
		t.Fatalf("alerts: %d flows / %d total, want %d/%d (lost or duplicated across swaps)",
			len(seen.n), total, want, want)
	}
	if rep.Tenants[DefaultTenant].Alerts != uint64(want) {
		t.Fatalf("drain tally %d alerts, want %d", rep.Tenants[DefaultTenant].Alerts, want)
	}
	nGens := 0
	gens.Range(func(k, _ any) bool { nGens++; return true })
	if nGens < 2 {
		t.Fatalf("traffic only ever saw %d generation(s); swap concurrency not exercised", nGens)
	}
	gen, _, _, _ := srv.Tenant(DefaultTenant).generationInfo()
	if gen != 0 { // tenant was shut down by Drain
		t.Fatalf("post-drain generation = %d, want 0", gen)
	}
}

func TestIngestTCP(t *testing.T) {
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
	ingestDone := make(chan error, 1)
	go func() { ingestDone <- srv.ServeIngest(ln) }()

	conn, err := DialIngest(ln.Addr().String(), DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	const flows = 10
	for i := 0; i < flows; i++ {
		k := netsim.FlowKey{SrcIP: uint32(1000 + i), DstIP: 7, SrcPort: uint16(i + 1), DstPort: 80}
		payload := fmt.Sprintf("tcp flow %d carries http-attack-xyz onward", i)
		if _, err := conn.Write(EncodeSegments(flowSegments(k, []byte(payload)))); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()

	// A second connection naming an unknown tenant is dropped without
	// disturbing the first tenant's pipeline.
	if c2, err := DialIngest(ln.Addr().String(), "ghost"); err == nil {
		c2.Write([]byte{0, 0, 0, 26})
		c2.Close()
	}

	// A finished feed (clean EOF) triggers a flush, so the alerts become
	// visible without closing the pipeline; wait for that, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Tenant(DefaultTenant).alerts.Load() < flows && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := srv.Tenant(DefaultTenant).alerts.Load(); got != flows {
		t.Fatalf("alerts after feed EOF = %d, want %d", got, flows)
	}
	rep := srv.Drain(10 * time.Second)
	if err := <-ingestDone; err != nil {
		t.Fatalf("ServeIngest: %v", err)
	}
	if got := rep.Tenants[DefaultTenant].Alerts; got != flows {
		t.Fatalf("alerts = %d, want %d", got, flows)
	}
	if !rep.Clean {
		t.Fatalf("dirty drain: %+v", rep)
	}
}

// checkPromText validates Prometheus text exposition 0.0.4 shape: every
// sample belongs to a declared family, values parse, and histogram
// bucket series are cumulative.
func checkPromText(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}
	lastBucket := map[string]float64{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("metrics line %d: bad comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				types[parts[2]] = parts[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("metrics line %d: no value in %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("metrics line %d: bad value %q", ln+1, valStr)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("metrics line %d: unbalanced labels in %q", ln+1, series)
			}
			name = series[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok && types[f] == "histogram" {
				family = f
			}
		}
		typ, ok := types[family]
		if !ok {
			t.Fatalf("metrics line %d: sample %q has no TYPE declaration", ln+1, name)
		}
		if typ == "counter" && val < 0 {
			t.Fatalf("metrics line %d: negative counter %q", ln+1, line)
		}
		if strings.HasSuffix(name, "_bucket") && typ == "histogram" {
			key := series[:strings.Index(series, "le=")]
			if val < lastBucket[key] {
				t.Fatalf("metrics line %d: histogram %q not cumulative", ln+1, series)
			}
			lastBucket[key] = val
		}
	}
	if len(types) == 0 {
		t.Fatal("metrics exposition is empty")
	}
}

// promValue extracts one sample's value by its exact series name.
func promValue(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// ruleSemBlob compiles Snort-lite rule lines with full rule semantics
// into a serialized .vpdb blob.
func ruleSemBlob(t testing.TB, ruleText string) []byte {
	t.Helper()
	rset, err := vpatch.ParseRuleSet(strings.NewReader(ruleText), vpatch.RuleParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ids.NewRuleEngine(rset, vpatch.Options{}, func(ids.Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.WriteDB(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAlertStream exercises the rule tier end to end over the daemon:
// a rule-conditioned database hot-loads, a matching flow streams in,
// and the alert surfaces on GET /v1/alerts (buffered and follow=1)
// with rule identity and on /metrics via the verifier counters.
func TestAlertStream(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	db := ruleSemBlob(t, `alert tcp any any -> any 80 (msg:"admin token"; `+
		`content:"admin"; nocase; content:"token="; distance:0; within:200; `+
		`pcre:"/[a-f0-9]{8}/"; sid:1001;)`+"\n")
	resp, body := postBytes(t, ts.URL+"/v1/tenants/default/rules", db)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rules upload: %d %s", resp.StatusCode, body)
	}
	var up struct {
		Rules int `json:"rules"`
	}
	if err := json.Unmarshal(body, &up); err != nil || up.Rules != 1 {
		t.Fatalf("rules upload reply %s: want rules=1", body)
	}

	// A live follower opened before any alert exists.
	fresp, err := http.Get(ts.URL + "/v1/alerts?follow=1&tenant=default")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	type lineOrErr struct {
		rec AlertRecord
		err error
	}
	lines := make(chan lineOrErr, 16)
	go func() {
		dec := json.NewDecoder(fresp.Body)
		for {
			var rec AlertRecord
			if err := dec.Decode(&rec); err != nil {
				lines <- lineOrErr{err: err}
				return
			}
			lines <- lineOrErr{rec: rec}
		}
	}()

	k := netsim.FlowKey{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 40001, DstPort: 80}
	segs := flowSegments(k, []byte("GET /aDmIn HTTP/1.1\r\nCookie: token=deadbeef\r\n\r\n"))
	resp, body = postBytes(t, ts.URL+"/v1/stream?flush=1", EncodeSegments(segs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %s", resp.StatusCode, body)
	}
	var str streamResponse
	if err := json.Unmarshal(body, &str); err != nil || str.AlertsTotal != 1 {
		t.Fatalf("stream reply %s: want alerts_total=1", body)
	}

	checkRec := func(rec AlertRecord) {
		t.Helper()
		if rec.Tenant != "default" || rec.SID != 1001 || rec.Msg != "admin token" ||
			rec.Rule != 0 || rec.Pattern != -1 ||
			rec.SrcIP != netip.AddrFrom4([4]byte{10, 0, 0, 1}) || rec.DstPort != 80 {
			t.Fatalf("alert record %+v: wrong identity", rec)
		}
	}
	select {
	case l := <-lines:
		if l.err != nil {
			t.Fatalf("follow stream: %v", l.err)
		}
		checkRec(l.rec)
	case <-time.After(5 * time.Second):
		t.Fatal("follow stream: no alert within 5s")
	}

	// The buffered (non-follow) view replays the same record.
	resp, body = func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/v1/alerts?tenant=default&limit=10")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, b
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alerts: %d %s", resp.StatusCode, body)
	}
	var recs []AlertRecord
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var rec AlertRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("alerts body %q: %v", body, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 1 {
		t.Fatalf("buffered alerts: got %d records, want 1 (%s)", len(recs), body)
	}
	checkRec(recs[0])

	// Verifier counters surface on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	checkPromText(t, text)
	for series, min := range map[string]float64{
		`vpatch_rule_alerts_total{tenant="default"}`:   1,
		`vpatch_verifier_runs_total{tenant="default"}`: 1,
		`vpatch_alert_stream_subscribers`:              1,
	} {
		if v, ok := promValue(text, series); !ok || v < min {
			t.Errorf("metrics: %s = %v (present %v), want >= %v", series, v, ok, min)
		}
	}
}

// TestTenantConfigRejectsUnknownFields: a tenant PUT whose body
// misspells a field, or carries data after the object, is refused with
// a 400 naming the problem, and creates no tenant.
func TestTenantConfigRejectsUnknownFields(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	put := func(name, body string) (int, string) {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/tenants/"+name, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(out)
	}
	for _, tc := range []struct{ name, body, want string }{
		{"typo", `{"verifer_flow_budget":1000}`, "verifer_flow_budget"},
		{"trailing", `{"verifier_flow_budget":1000} {"shards":2}`, "trailing data"},
	} {
		if code, body := put(tc.name, tc.body); code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
			t.Errorf("%s: PUT %s = %d %s; want 400 naming %q", tc.name, tc.body, code, body, tc.want)
		}
		if srv.Tenant(tc.name) != nil {
			t.Errorf("%s: a refused config created the tenant", tc.name)
		}
	}
	if code, body := put("ok", "{\"verifier_flow_budget\":1000}\n"); code != http.StatusCreated {
		t.Fatalf("valid config: %d %s", code, body)
	}
	if got := srv.Tenant("ok").cfg.VerifierFlowBudget; got != 1000 {
		t.Fatalf("verifier_flow_budget = %d, want 1000", got)
	}
}

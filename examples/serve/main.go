// serve is a client walkthrough of the vpatch-serve daemon: it starts
// the resident multi-tenant scanner in-process on a loopback port, then
// drives it exactly like an external client would — upload a compiled
// rule database, run one-shot scans, stream reassembled flows, hot-swap
// the rules with zero downtime mid-traffic, scrape /metrics, and drain.
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/netsim"
	"vpatch/internal/serve"
)

// blob compiles a pattern list into the serialized .vpdb database the
// daemon hot-loads; the engine is compiled state only (nil alert sink:
// no default shard), since the daemon scans with its own dispatchers.
// In production this is `vpatch-compile -ids`.
func blob(pats ...string) []byte {
	set := vpatch.NewPatternSet()
	for _, p := range pats {
		set.Add([]byte(p), false, vpatch.ProtoHTTP)
	}
	eng, err := ids.NewEngine(set, vpatch.Options{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.WriteDB(&buf); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func post(url string, body []byte) string {
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %d %s", url, resp.StatusCode, out)
	}
	return strings.TrimSpace(string(out))
}

func main() {
	// The daemon half: vpatch-serve does exactly this behind flags.
	srv := serve.New(serve.Config{
		OnAlert: func(tenant string, gen uint64, a ids.Alert) {
			fmt.Printf("  ALERT tenant=%s gen=%d rule=%d flow=%x:%d offset=%d\n",
				tenant, gen, a.PatternID, a.Flow.SrcIP, a.Flow.SrcPort, a.StreamOffset)
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	base := "http://" + ln.Addr().String()
	fmt.Println("daemon on", base)

	// 1. Load generation 1 into the default tenant (auto-created).
	fmt.Println("\n-- load rules v1:", post(base+"/v1/tenants/default/rules",
		blob("attack-alpha", "attack-beta")))

	// 2. One-shot scan over the HTTP API.
	fmt.Println("\n-- scan:", post(base+"/v1/scan?port=80",
		[]byte("GET /?q=attack-alpha attack-beta HTTP/1.1")))

	// 3. Stream a reassembled flow: segment frames in the daemon's wire
	// format, flushed so the alert is visible in the response.
	segs := []netsim.Segment{
		{Flow: netsim.FlowKey{SrcIP: 0x0A000001, DstIP: 0xC0A80001, SrcPort: 40001, DstPort: 80},
			Seq: 0, Payload: []byte("stream carrying atta")},
		{Flow: netsim.FlowKey{SrcIP: 0x0A000001, DstIP: 0xC0A80001, SrcPort: 40001, DstPort: 80},
			Seq: 20, Payload: []byte("ck-beta split across segments"), Flags: netsim.FlagFIN},
	}
	fmt.Println("\n-- stream:", post(base+"/v1/stream?flush=1", serve.EncodeSegments(segs)))

	// 4. Zero-downtime hot swap: generation 2 replaces the rules under
	// the tenant's live shards; segments queued before it finish on gen 1.
	fmt.Println("\n-- load rules v2:", post(base+"/v1/tenants/default/rules",
		blob("attack-gamma")))
	fmt.Println("-- scan on v2:", post(base+"/v1/scan?port=80",
		[]byte("attack-alpha no longer matches; attack-gamma does")))

	// 5. Scrape the Prometheus surface.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\n-- /metrics (excerpt):")
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "vpatch_alerts_total") ||
			strings.HasPrefix(line, "vpatch_rules_generation") ||
			strings.HasPrefix(line, "vpatch_scanned_bytes_total") {
			fmt.Println("  ", line)
		}
	}

	// 6. Graceful drain: every shard flushes, residual state reported.
	fmt.Println("\n-- drain:", post(base+"/drain?timeout=10s", nil))
}

package serve

import (
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vpatch/ids"
	"vpatch/internal/netsim"
)

// Reload-mid-flow fixtures: the signatures both databases share, the
// ones only the superset adds (one longer than any shared one, so the
// swap also grows maxLen), and filler that can form none of them.
var (
	midFlowSigs  = []string{"alpha-sig-0001", "bravo-sig-22", "charlie-sig-333", "delta-sig-4"}
	midFlowExtra = []string{"echo-new-signature-longer-than-all", "fox-new"}
)

const midFlowFiller = "xyz0123456789 ./"

// midFlowDB compiles sigs into a literal or a rule-semantics database.
// Rule databases give each signature a single-content rule whose sid is
// fixed by the signature, so the same rule keeps its sid (not its rule
// ID) across databases. Single-content rules because a swap settles
// clause progress and suspended verifications (see ids.Shard.rebind).
func midFlowDB(t *testing.T, kind string, sigs []string) []byte {
	if kind == "literal" {
		return ruleBlob(t, sigs...)
	}
	var b strings.Builder
	for _, s := range sigs {
		fmt.Fprintf(&b, "alert tcp any any -> any 80 (msg:%q; content:%q; sid:%d;)\n", s, s, midFlowSID(s))
	}
	return ruleSemBlob(t, b.String())
}

func midFlowSID(sig string) int {
	return 1000 + slices.Index(append(midFlowSigs[:len(midFlowSigs):len(midFlowSigs)], midFlowExtra...), sig)
}

// alertNamer maps a database's alerts to a database-independent name:
// the literal's bytes, or the rule's sid.
func alertNamer(t *testing.T, db []byte) func(ids.Alert) string {
	eng, err := ids.LoadDB(db, func(ids.Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	if rset := eng.Rules(); rset != nil {
		return func(a ids.Alert) string { return fmt.Sprintf("sid:%d", rset.Rules[a.RuleID].SID) }
	}
	pats := eng.Set().Patterns()
	return func(a ids.Alert) string { return string(pats[a.PatternID].Data) }
}

// midFlowTraffic builds flows cut in two: part a is sent before the
// reload, part b after. Each flow carries shared signatures (repeats
// included, so a rule's per-flow dedup is exercised) and about half are
// cut inside one; a few flows close entirely in a, and b carries a late
// retransmit of their first bytes, which their tombstones must drop.
func midFlowTraffic(rng *rand.Rand) (a, b []netsim.Segment) {
	var as, bs [][]netsim.Segment
	chunks := func(k netsim.FlowKey, payload []byte, from, to int) []netsim.Segment {
		var segs []netsim.Segment
		for off := from; off < to; {
			n := min(5+rng.Intn(36), to-off)
			segs = append(segs, netsim.Segment{Flow: k, Seq: uint32(off), Payload: payload[off : off+n]})
			off += n
		}
		return segs
	}
	for f := 0; f < 32; f++ {
		k := netsim.FlowKey{SrcIP: 0x0A000000 + uint32(f), DstIP: 0xC0A80001, SrcPort: uint16(40000 + f), DstPort: 80}
		payload := make([]byte, 150+rng.Intn(250))
		for i := range payload {
			payload[i] = midFlowFiller[rng.Intn(len(midFlowFiller))]
		}
		tomb := f%8 == 0
		var cuts []int
		for pos := 0; ; {
			sig := midFlowSigs[rng.Intn(len(midFlowSigs))]
			if !tomb || pos > 0 {
				pos += 1 + rng.Intn(60)
			}
			if pos+len(sig) > len(payload) {
				break
			}
			copy(payload[pos:], sig)
			cuts = append(cuts, pos+1+rng.Intn(len(sig)-1))
			pos += len(sig)
		}
		cut := rng.Intn(len(payload) + 1)
		switch {
		case tomb:
			cut = len(payload)
		case rng.Intn(2) == 0 && len(cuts) > 0:
			cut = cuts[rng.Intn(len(cuts))]
		}
		fa := chunks(k, payload, 0, cut)
		fb := chunks(k, payload, cut, len(payload))
		if tomb {
			fa[len(fa)-1].Flags = netsim.FlagFIN
			fb = []netsim.Segment{{Flow: k, Payload: payload[:40]}}
		} else {
			fb = append(fb, netsim.Segment{Flow: k, Seq: uint32(len(payload)), Flags: netsim.FlagFIN})
		}
		as, bs = append(as, fa), append(bs, fb)
	}
	// Interleave the flows, keeping each flow's segments in order.
	interleave := func(per [][]netsim.Segment) (out []netsim.Segment) {
		for more := true; more; {
			more = false
			for i := range per {
				if len(per[i]) > 0 {
					out = append(out, per[i][0])
					per[i] = per[i][1:]
					more = true
				}
			}
		}
		return out
	}
	return interleave(as), interleave(bs)
}

// midFlowCase is one run: the database to reload to (nil: no reload),
// the ingest path, the shard count and when the reload lands.
type midFlowCase struct {
	dbA     []byte
	reload  []byte
	tcp     bool
	shards  int
	timing  string // "flushed", "queued" or "racing"
	a, b    []netsim.Segment
	seedRng int64
}

// alertKey is one alert, named independently of the database.
type alertKey struct {
	flow netsim.FlowKey
	name string
	off  int64
}

// runMidFlow streams a, reloads, streams b, drains, and returns the
// alert multiset and the tenant's drain report.
func runMidFlow(t *testing.T, c midFlowCase) (map[alertKey]int, TenantDrain) {
	t.Helper()
	namers := map[uint64]func(ids.Alert) string{1: alertNamer(t, c.dbA)}
	if c.reload != nil {
		namers[2] = alertNamer(t, c.reload)
	}
	var mu sync.Mutex
	got := map[alertKey]int{}
	srv := New(Config{OnAlert: func(_ string, gen uint64, a ids.Alert) {
		name := namers[gen](a)
		mu.Lock()
		got[alertKey{a.Flow, name, a.StreamOffset}]++
		mu.Unlock()
	}})
	if _, err := srv.CreateTenant(DefaultTenant, TenantConfig{Shards: c.shards}); err != nil {
		t.Fatal(err)
	}
	tenant := srv.Tenant(DefaultTenant)
	if _, err := tenant.Reload(c.dbA); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(c.seedRng))
	reload := func() {
		if c.reload != nil {
			if _, err := tenant.Reload(c.reload); err != nil {
				t.Error(err)
			}
		}
	}
	// b goes out in a few pieces; a racing reload starts once a random
	// one is handed in and runs concurrently with the rest.
	var pieces [][]netsim.Segment
	for rest := c.b; len(rest) > 0; {
		n := min(1+rng.Intn(len(c.b)/3+1), len(rest))
		pieces, rest = append(pieces, rest[:n]), rest[n:]
	}
	sendB := func(send func([]netsim.Segment)) {
		fireAt := -1
		if c.timing == "racing" {
			fireAt = rng.Intn(max(len(pieces)-1, 1))
		}
		var racing sync.WaitGroup
		for i, p := range pieces {
			send(p)
			if i == fireAt {
				racing.Add(1)
				go func() {
					defer racing.Done()
					reload()
				}()
			}
		}
		racing.Wait()
	}

	var rep DrainReport
	if c.tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.ServeIngest(ln) }()
		dial := func() net.Conn {
			conn, err := DialIngest(ln.Addr().String(), DefaultTenant)
			if err != nil {
				t.Fatal(err)
			}
			return conn
		}
		// dispatched waits until the scheduler has handed the payload
		// bytes of every segment of parts to the dispatcher.
		dispatched := func(parts ...[]netsim.Segment) {
			want := uint64(0)
			for _, segs := range parts {
				for _, s := range segs {
					want += uint64(len(s.Payload))
				}
			}
			for srv.SchedStats(DefaultTenant).DispatchedBytes < want {
				time.Sleep(100 * time.Microsecond)
			}
			srv.sched.Flush(DefaultTenant)
		}
		conn := dial()
		send := func(segs []netsim.Segment) {
			if _, err := conn.Write(EncodeSegments(segs)); err != nil {
				t.Fatal(err)
			}
		}
		send(c.a)
		switch c.timing {
		case "flushed":
			conn.Close()
			dispatched(c.a)
			reload()
			conn = dial()
		case "queued":
			reload()
		}
		sendB(send)
		conn.Close()
		// A connection the listener has not accepted yet when the drain
		// begins is refused, so wait for the feed to arrive.
		dispatched(c.a, c.b)
		rep = srv.Drain(10 * time.Second)
		ln.Close()
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	} else {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		post := func(segs []netsim.Segment, flush bool) {
			url := ts.URL + "/v1/stream"
			if flush {
				url += "?flush=1"
			}
			if resp, body := postBytes(t, url, EncodeSegments(segs)); resp.StatusCode != 200 {
				t.Fatalf("stream: %d %s", resp.StatusCode, body)
			}
		}
		post(c.a, c.timing == "flushed")
		if c.timing != "racing" {
			reload()
		}
		sendB(func(segs []netsim.Segment) { post(segs, false) })
		rep = srv.Drain(10 * time.Second)
	}
	if !rep.Clean {
		t.Fatalf("dirty drain: %+v", rep)
	}
	return got, rep.Tenants[DefaultTenant]
}

// multisetDiff lists up to ten keys whose counts differ.
func multisetDiff(got, want map[alertKey]int) string {
	var diffs []string
	for k, n := range want {
		if got[k] != n {
			diffs = append(diffs, fmt.Sprintf("%+v: got %d, want %d", k, got[k], n))
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%+v: got %d, want 0", k, n))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 10 {
		diffs = append(diffs[:10], fmt.Sprintf("... %d more", len(diffs)-10))
	}
	return strings.Join(diffs, "\n")
}

// TestReloadMidFlow: a rule reload between the two halves of live flows
// — after the first half was flushed, while it is still queued, or
// racing the second half — over /v1/stream and raw-TCP ingest, 1-3
// shards, literal and rule databases. Reloading the same database
// yields exactly the alerts of a run without a reload and leaves no
// reassembly bytes behind; reloading a superset makes every shared
// signature alert exactly as without a reload (so a rule exactly once
// per flow); a flow closed before the reload stays closed, its late
// retransmit raising nothing.
func TestReloadMidFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	shared := map[string]bool{}
	for _, s := range midFlowSigs {
		shared[s] = true
		shared[fmt.Sprintf("sid:%d", midFlowSID(s))] = true
	}
	for _, kind := range []string{"literal", "rule"} {
		dbA := midFlowDB(t, kind, midFlowSigs)
		superset := append([]string{midFlowExtra[0]}, midFlowSigs...)
		superset[1], superset[3] = superset[3], superset[1] // other IDs, same sids
		dbB := midFlowDB(t, kind, append(superset, midFlowExtra[1]))
		a, b := midFlowTraffic(rng)
		ref, refDrain := runMidFlow(t, midFlowCase{dbA: dbA, shards: 1, timing: "flushed", a: a, b: b})
		if len(ref) == 0 || refDrain.ResidualPendingBytes != 0 {
			t.Fatalf("%s reference: %d alerts, %d residual bytes", kind, len(ref), refDrain.ResidualPendingBytes)
		}
		for _, tcp := range []bool{false, true} {
			for shards := 1; shards <= 3; shards++ {
				for _, timing := range []string{"flushed", "queued", "racing"} {
					for _, same := range []bool{true, false} {
						c := midFlowCase{dbA: dbA, reload: dbA, tcp: tcp, shards: shards,
							timing: timing, a: a, b: b, seedRng: rng.Int63()}
						db := "same"
						if !same {
							c.reload, db = dbB, "superset"
						}
						ingest := "stream"
						if tcp {
							ingest = "tcp"
						}
						t.Run(fmt.Sprintf("%s/%s/shards=%d/%s/%s", kind, ingest, shards, timing, db), func(t *testing.T) {
							got, drain := runMidFlow(t, c)
							if drain.ResidualPendingBytes != 0 {
								t.Errorf("%d reassembly bytes left pending after the reload", drain.ResidualPendingBytes)
							}
							if !same {
								// Only the shared signatures are compared.
								for k := range got {
									if !shared[k.name] {
										delete(got, k)
									}
								}
							}
							if d := multisetDiff(got, ref); d != "" {
								t.Fatalf("alerts differ from the run without a reload:\n%s", d)
							}
						})
					}
				}
			}
		}
	}
}

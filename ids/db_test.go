package ids

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"sort"
	"testing"

	"vpatch"
	"vpatch/internal/netsim"
)

// TestDBRoundTrip saves a compiled rule-group engine and reloads it:
// the loaded engine must produce the identical alert stream on the
// same capture, and reject corrupted databases with an error.
func TestDBRoundTrip(t *testing.T) {
	set := vpatch.NewPatternSet()
	set.Add([]byte("GET /admin"), false, vpatch.ProtoHTTP)
	set.Add([]byte("attack"), true, vpatch.ProtoGeneric)
	set.Add([]byte("USER root"), false, vpatch.ProtoFTP)
	set.Add([]byte("x"), false, vpatch.ProtoHTTP)
	set.Add([]byte("query"), false, vpatch.ProtoDNS)

	flows := map[netsim.FlowKey][]byte{
		key(1, 80): []byte("GET /admin?q=ATTACK x GET /admin"),
		key(2, 21): []byte("USER root\r\nPASS attack\r\n"),
		key(3, 53): []byte("some query bytes attack"),
		key(4, 99): []byte("plain attack traffic"),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 9, Seed: 4, Jitter: 3})

	run := func(e *Engine, alerts *[]Alert) {
		for _, s := range segs {
			e.HandleSegment(s)
		}
		e.Flush()
	}
	sortAlerts := func(a []Alert) {
		sort.Slice(a, func(i, j int) bool {
			if a[i].Flow != a[j].Flow {
				return a[i].Flow.String() < a[j].Flow.String()
			}
			if a[i].StreamOffset != a[j].StreamOffset {
				return a[i].StreamOffset < a[j].StreamOffset
			}
			return a[i].PatternID < a[j].PatternID
		})
	}

	var want []Alert
	fresh, err := NewEngine(set, vpatch.Options{}, func(a Alert) { want = append(want, a) })
	if err != nil {
		t.Fatal(err)
	}
	run(fresh, &want)
	if len(want) == 0 {
		t.Fatal("test capture produced no alerts")
	}

	var buf bytes.Buffer
	if _, err := fresh.WriteDB(&buf); err != nil {
		t.Fatalf("WriteDB: %v", err)
	}
	blob := buf.Bytes()

	var got []Alert
	loaded, err := LoadDB(blob, func(a Alert) { got = append(got, a) })
	if err != nil {
		t.Fatalf("LoadDB: %v", err)
	}
	if len(loaded.GroupSizes()) != len(fresh.GroupSizes()) {
		t.Fatalf("loaded %d groups, want %d", len(loaded.GroupSizes()), len(fresh.GroupSizes()))
	}
	run(loaded, &got)

	sortAlerts(want)
	sortAlerts(got)
	if len(got) != len(want) {
		t.Fatalf("loaded engine: %d alerts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alert %d: got %+v want %+v", i, got[i], want[i])
		}
	}

	// ReadDB sees the same database.
	if _, err := ReadDB(bytes.NewReader(blob), func(Alert) {}); err != nil {
		t.Fatalf("ReadDB: %v", err)
	}

	// A loaded engine hands out shards like a compiled one.
	shard := loaded.NewShard(func(Alert) {})
	shard.HandleSegment(segs[0])
	shard.Flush()
}

// TestDBRejects covers the ids-level failure modes.
func TestDBRejects(t *testing.T) {
	set := vpatch.PatternSetFromStrings("abc")
	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	blob := e.SerializeDB()

	if _, err := LoadDB(blob[:len(blob)/2], func(Alert) {}); err == nil {
		t.Error("truncated db: want error")
	}
	for i := 0; i < len(blob); i += len(blob)/61 + 1 {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x08
		if _, err := LoadDB(bad, func(Alert) {}); err == nil {
			t.Errorf("bit flip at %d: want error", i)
		}
	}

	// A single-engine database is not an IDS database, and vice versa.
	single, err := vpatch.Compile(set, vpatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sblob := single.Serialize()
	if _, err := LoadDB(sblob, func(Alert) {}); err == nil {
		t.Error("engine db in LoadDB: want error")
	}
	if _, err := vpatch.Deserialize(blob); err == nil {
		t.Error("ids db in vpatch.Deserialize: want error")
	}
}

// TestVersion2RuleDBStillLoads loads a rule-semantics database written
// by format version 2, whose nested V-PATCH groups still carry their
// compiled filter state: it must load (the groups rebuilt from their
// patterns) and alert exactly like a fresh compile of its rule file.
func TestVersion2RuleDBStillLoads(t *testing.T) {
	text, err := os.ReadFile("testdata/v2/rules.rules")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("testdata/v2/rules.vpdb.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(blob[4:]); v != 2 {
		t.Fatalf("fixture has format version %d, want 2", v)
	}

	flows := map[netsim.FlowKey][]byte{
		key(1, 80): []byte("GET /x/AdMiN?token=0badc0de HTTP/1.1 xz"),
		key(2, 21): []byte("USER root\r\nPASS xz\r\n"),
		key(3, 53): []byte("a QUERY for xz"),
		key(4, 99): []byte("plain xz traffic, token=deadbeef"),
	}
	segs := netsim.Packetize(flows, netsim.PacketizeOptions{MTU: 7, Jitter: 3, Seed: 2, FIN: true})
	run := func(e *Engine) {
		for _, s := range segs {
			e.HandleSegment(s)
		}
		e.Flush()
	}

	rset, err := vpatch.ParseRuleSet(bytes.NewReader(text), vpatch.RuleParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want, got []Alert
	fresh, err := NewRuleEngine(rset, vpatch.Options{}, func(a Alert) { want = append(want, a) })
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDB(blob, func(a Alert) { got = append(got, a) })
	if err != nil {
		t.Fatalf("version-2 rule database rejected: %v", err)
	}
	if loaded.Rules() == nil || len(loaded.Rules().Rules) != len(rset.Rules) {
		t.Fatalf("loaded engine has rules %+v, want %d", loaded.Rules(), len(rset.Rules))
	}
	run(fresh)
	run(loaded)
	sortAlerts(want)
	sortAlerts(got)
	fired := map[int32]bool{}
	for _, a := range want {
		fired[a.RuleID] = true
	}
	if len(fired) != len(rset.Rules) {
		t.Fatalf("test capture fired %d of %d rules", len(fired), len(rset.Rules))
	}
	if len(got) != len(want) {
		t.Fatalf("loaded engine: %d alerts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alert %d: loaded %+v, fresh %+v", i, got[i], want[i])
		}
	}
}

package vpatch

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpatch/internal/dbfmt"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

// randomSet builds a pattern set with the shapes that exercise every
// serialization path: 1-byte patterns, short (2-3 B), mid, long,
// nocase variants, binary bytes, several protocols.
func randomSet(rng *rand.Rand, n int) *PatternSet {
	set := NewPatternSet()
	protos := []Protocol{ProtoGeneric, ProtoHTTP, ProtoDNS, ProtoFTP, ProtoSMTP}
	for set.Len() < n {
		ln := 1 + rng.Intn(24)
		if rng.Intn(4) == 0 {
			ln = 1 + rng.Intn(3) // force short-class coverage
		}
		data := make([]byte, ln)
		for i := range data {
			if rng.Intn(5) == 0 {
				data[i] = byte(rng.Intn(256)) // binary
			} else {
				data[i] = byte('A' + rng.Intn(52))
			}
		}
		set.Add(data, rng.Intn(3) == 0, protos[rng.Intn(len(protos))])
	}
	return set
}

// TestDBRoundTripProperty is the round-trip property of the compiled
// database format: compile → serialize → deserialize must produce an
// engine whose Scan and ScanBatch output is match-identical to the
// fresh engine, across all five algorithms and randomized pattern
// sets.
func TestDBRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		set := randomSet(rng, 40+trial*60)
		input := traffic.Synthesize(traffic.ISCXDay2, 48<<10, int64(trial+9), set)
		// A batch of small buffers slicing the same traffic.
		var batch [][]byte
		for off := 0; off < len(input); {
			n := 37 + rng.Intn(1400)
			if off+n > len(input) {
				n = len(input) - off
			}
			batch = append(batch, input[off:off+n])
			off += n
		}
		for _, alg := range allAlgorithms {
			fresh, err := Compile(set, Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("trial %d %s: Compile: %v", trial, alg, err)
			}
			loaded, err := Deserialize(fresh.Serialize())
			if err != nil {
				t.Fatalf("trial %d %s: Deserialize: %v", trial, alg, err)
			}
			if loaded.Algorithm() != alg {
				t.Fatalf("trial %d %s: loaded algorithm %s", trial, alg, loaded.Algorithm())
			}

			want := fresh.FindAll(input)
			got := loaded.FindAll(input)
			if !patterns.EqualMatches(want, got) {
				t.Errorf("trial %d %s: Scan mismatch: %d fresh vs %d loaded matches",
					trial, alg, len(want), len(got))
			}

			wantB := fresh.FindAllBatch(batch)
			gotB := loaded.FindAllBatch(batch)
			for i := range wantB {
				if !patterns.EqualMatches(wantB[i], gotB[i]) {
					t.Errorf("trial %d %s: ScanBatch buffer %d mismatch", trial, alg, i)
					break
				}
			}

			// A session over the loaded engine works like any other.
			s := loaded.NewSession()
			n := 0
			s.Scan(input, nil, func(Match) { n++ })
			if n != len(want) {
				t.Errorf("trial %d %s: session scan found %d, want %d", trial, alg, n, len(want))
			}
		}
	}
}

// TestDBRoundTripSecondGeneration checks serialize(deserialize(x)) ==
// x: the loaded engine re-serializes to the identical blob, so
// databases are stable across load/save cycles.
func TestDBRoundTripSecondGeneration(t *testing.T) {
	set := randomSet(rand.New(rand.NewSource(7)), 80)
	for _, alg := range allAlgorithms {
		fresh, err := Compile(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: Compile: %v", alg, err)
		}
		blob1 := fresh.Serialize()
		loaded, err := Deserialize(blob1)
		if err != nil {
			t.Fatalf("%s: Deserialize: %v", alg, err)
		}
		if blob2 := loaded.Serialize(); !bytes.Equal(blob1, blob2) {
			t.Errorf("%s: re-serialized database differs (%d vs %d bytes)", alg, len(blob1), len(blob2))
		}
	}
}

// TestDBStoresNoEngineSection checks what a database holds: the
// pattern section, and no engine section for any algorithm — all five
// compile from the patterns at load.
func TestDBStoresNoEngineSection(t *testing.T) {
	set := randomSet(rand.New(rand.NewSource(5)), 30)
	for _, alg := range allAlgorithms {
		eng, err := Compile(set, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		_, secs, err := dbfmt.Decode(eng.Serialize())
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if dbfmt.FindSection(secs, dbfmt.TagPatterns) == nil {
			t.Errorf("%s: no pattern section", alg)
		}
		if dbfmt.FindSection(secs, dbfmt.TagEngine) != nil {
			t.Errorf("%s: database carries an engine section", alg)
		}
	}
}

// TestVersion2DatabasesStillLoad loads single-engine databases written
// by format version 2, when every algorithm stored its compiled state:
// each must load (ignoring its stored section and compiling the pattern
// section) and match exactly like a fresh compile of its pattern set.
func TestVersion2DatabasesStillLoad(t *testing.T) {
	files, err := filepath.Glob("testdata/v2/*.vpdb.gz")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Algorithm]bool{}
	for _, path := range files {
		seen[checkFixtureLoads(t, path, 2)] = true
	}
	for _, alg := range allAlgorithms {
		if !seen[alg] {
			t.Errorf("no version-2 fixture for %s", alg)
		}
	}
}

// TestVersion3AhoCorasickDatabaseLoads loads an Aho-Corasick database
// written by format version 3, the last version that stored its
// automaton: it must load from the pattern section and match exactly
// like a fresh compile.
func TestVersion3AhoCorasickDatabaseLoads(t *testing.T) {
	if alg := checkFixtureLoads(t, "testdata/v3/ahocorasick.vpdb.gz", 3); alg != AlgoAhoCorasick {
		t.Errorf("fixture holds %s, want %s", alg, AlgoAhoCorasick)
	}
}

// TestRetiredAlgorithmDatabasesFail loads version-2 databases of the
// two retired engines, Wu-Manber (algorithm 5) and FFBF (6): each must
// fail with ErrRetiredAlgorithm, naming the engine, rather than load as
// another algorithm.
func TestRetiredAlgorithmDatabasesFail(t *testing.T) {
	for path, name := range map[string]string{
		"testdata/retired/wumanber.vpdb.gz": "Wu-Manber",
		"testdata/retired/ffbf.vpdb.gz":     "FFBF",
	} {
		blob := readFixture(t, path)
		if _, _, err := dbfmt.Decode(blob); err != nil {
			t.Fatalf("%s: fixture does not decode: %v", path, err)
		}
		_, err := Deserialize(blob)
		if !errors.Is(err, ErrRetiredAlgorithm) || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Deserialize error %v, want ErrRetiredAlgorithm naming %s", path, err, name)
		}
	}
}

// readFixture returns the contents of a gzipped fixture.
func readFixture(tb testing.TB, path string) []byte {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return blob
}

// checkFixtureLoads reads a gzipped fixture written by format version,
// checks that it carries an engine section, loads it and compares its
// matches with a fresh compile of its pattern set. It returns the
// fixture's algorithm.
func checkFixtureLoads(t *testing.T, path string, version uint16) Algorithm {
	t.Helper()
	blob := readFixture(t, path)
	if v := binary.LittleEndian.Uint16(blob[4:]); v != version {
		t.Fatalf("%s: fixture has format version %d, want %d", path, v, version)
	}
	if _, secs, err := dbfmt.Decode(blob); err != nil || dbfmt.FindSection(secs, dbfmt.TagEngine) == nil {
		t.Fatalf("%s: fixture carries no engine section (err %v)", path, err)
	}
	loaded, err := Deserialize(blob)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	alg := loaded.Algorithm()
	fresh, err := Compile(loaded.Set(), Options{Algorithm: alg, VectorWidth: loaded.VectorWidth()})
	if err != nil {
		t.Fatalf("%s: Compile: %v", path, err)
	}
	input := traffic.Synthesize(traffic.ISCXDay2, 32<<10, 5, loaded.Set())
	want := fresh.FindAll(input)
	if len(want) == 0 {
		t.Fatalf("%s: probe traffic matches nothing", path)
	}
	if got := loaded.FindAll(input); !patterns.EqualMatches(want, got) {
		t.Errorf("%s (%s): %d loaded matches, %d fresh", path, alg, len(got), len(want))
	}
	return alg
}

// TestDBWriteToReadFrom exercises the io.Writer/io.Reader surface.
func TestDBWriteToReadFrom(t *testing.T) {
	set := PatternSetFromStrings("attack", "GET /", "xx")
	eng, err := Compile(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := eng.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo: n=%d err=%v (buffered %d)", n, err, buf.Len())
	}
	loaded, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	in := []byte("a GET /attack xx")
	if !patterns.EqualMatches(eng.FindAll(in), loaded.FindAll(in)) {
		t.Error("ReadFrom engine mismatch")
	}
}

// TestDeserializeRejects covers the explicit failure modes: wrong
// magic, truncations, bit flips (CRC), digest mismatch, wrong kind.
func TestDeserializeRejects(t *testing.T) {
	set := randomSet(rand.New(rand.NewSource(3)), 30)
	eng, err := Compile(set, Options{Algorithm: AlgoVPatch})
	if err != nil {
		t.Fatal(err)
	}
	blob := eng.Serialize()

	if _, err := Deserialize(nil); err == nil {
		t.Error("nil input: want error")
	}
	for _, cut := range []int{1, len(blob) / 3, len(blob) - 1} {
		if _, err := Deserialize(blob[:cut]); err == nil {
			t.Errorf("truncation at %d: want error", cut)
		}
	}
	for i := 0; i < len(blob); i += len(blob)/97 + 1 {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x10
		if _, err := Deserialize(bad); err == nil {
			t.Errorf("bit flip at %d: want error", i)
		}
	}
}

// TestInfo checks the Info surface across a vectorized and a scalar
// engine.
func TestInfo(t *testing.T) {
	set := PatternSetFromStrings("alpha", "bet", "c", "longestpattern")
	v, err := Compile(set, Options{Algorithm: AlgoVPatch})
	if err != nil {
		t.Fatal(err)
	}
	inf := v.Info()
	if inf.Algorithm != AlgoVPatch || inf.Patterns != 4 || inf.MaxPatternLen != 14 {
		t.Errorf("V-PATCH info = %+v", inf)
	}
	if inf.VectorWidth != 8 {
		t.Errorf("V-PATCH width = %d, want 8", inf.VectorWidth)
	}
	if inf.MemoryBytes <= 0 || inf.SerializedBytes <= 0 {
		t.Errorf("V-PATCH sizes = %+v", inf)
	}
	if blob := v.Serialize(); inf.SerializedBytes != len(blob) {
		t.Errorf("SerializedBytes %d, Serialize len %d", inf.SerializedBytes, len(blob))
	}
	if s := inf.String(); s == "" {
		t.Error("empty Info string")
	}

	ac, err := Compile(set, Options{Algorithm: AlgoAhoCorasick})
	if err != nil {
		t.Fatal(err)
	}
	if inf := ac.Info(); inf.VectorWidth != 0 || inf.MemoryBytes <= 0 {
		t.Errorf("AC info = %+v", inf)
	}
}

// FuzzDeserialize feeds arbitrary bytes to the database loader: any
// input must produce an engine or an error — never a panic. Every
// engine is compiled from the pattern section, so a load allocates what
// Compile of the decoded patterns does: for Aho-Corasick up to 1 KiB
// per automaton state, capped at 256 MB (beyond that it builds the
// sparse automaton). Seeds include valid databases of every algorithm,
// bare pattern sections, and every fixture: older databases that carry
// an engine section and databases of the retired algorithms, so
// mutations explore deep decode paths.
func FuzzDeserialize(f *testing.F) {
	set := PatternSetFromStrings("fuzz", "GE", "x", "pattern-long-enough")
	setN := randomSet(rand.New(rand.NewSource(11)), 25)
	for _, alg := range allAlgorithms {
		for _, s := range []*PatternSet{set, setN} {
			if eng, err := Compile(s, Options{Algorithm: alg}); err == nil {
				f.Add(eng.Serialize())
			}
		}
	}
	for _, s := range []*PatternSet{set, setN} {
		var pe dbfmt.Encoder
		patterns.EncodeSet(&pe, s)
		f.Add(pe.Bytes())
	}
	fixtures, err := filepath.Glob("testdata/*/*.vpdb.gz")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range fixtures {
		f.Add(readFixture(f, path))
	}
	f.Add([]byte("VPDB"))
	f.Add([]byte{})

	scanProbe := []byte("GET /fuzz pattern-long-enough xx\x00\x01")
	load := func(alg Algorithm, digest uint64, secs ...dbfmt.Section) {
		width := uint8(0)
		if alg == AlgoVPatch || alg == AlgoVectorDFC {
			width = 8
		}
		blob := dbfmt.Encode(
			dbfmt.Header{Kind: dbfmt.KindEngine, Algorithm: uint8(alg), Width: width, Digest: digest},
			secs)
		if eng, err := Deserialize(blob); err == nil {
			eng.Scan(scanProbe, nil, func(Match) {})
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if eng, err := Deserialize(data); err == nil {
			// A database that decodes must also scan without panicking.
			eng.Scan(scanProbe, nil, func(Match) {})
		}
		// Every algorithm compiles from the pattern section: wrap the
		// fuzz data as that section, under its own digest where it
		// decodes, so arbitrary bytes reach DecodeSet and then Compile.
		var digest uint64
		if s, err := patterns.DecodeSet(dbfmt.NewDecoder(data)); err == nil {
			digest = s.Digest()
		}
		for _, alg := range allAlgorithms {
			load(alg, digest, dbfmt.Section{Tag: dbfmt.TagPatterns, Data: data})
		}
	})
}

package ids

// Whole-pipeline compiled databases: every per-protocol rule group of
// an Engine — each an independently compiled vpatch.Engine plus its
// subset-to-original pattern ID mapping — saved into one .vpdb file,
// so a production IDS parses its rule set offline once and every
// worker process loads it in milliseconds. The container reuses the
// single-engine format: each group section nests a complete engine
// database, so every group is individually CRC- and digest-validated
// on load, and holds what vpatch.Serialize stores: the group's
// patterns.

import (
	"fmt"
	"io"

	"vpatch"
	"vpatch/internal/dbfmt"
	"vpatch/internal/patterns"
	"vpatch/internal/rules"
)

// SerializeDB flattens the engine's compiled rule groups into one
// database blob.
func (e *Engine) SerializeDB() []byte {
	var pe dbfmt.Encoder
	patterns.EncodeSet(&pe, e.set)
	secs := []dbfmt.Section{{Tag: dbfmt.TagPatterns, Data: pe.Bytes()}}
	if e.rules != nil {
		// The rule tier rides in its own section over the same pattern
		// set; literal-only readers never look for it.
		var re dbfmt.Encoder
		e.rules.Encode(&re)
		secs = append(secs, dbfmt.Section{Tag: dbfmt.TagRules, Data: re.Bytes()})
	}
	h := dbfmt.Header{Kind: dbfmt.KindIDS, Digest: e.set.Digest()}
	first := true
	for _, proto := range allProtocols {
		g := e.groups[proto]
		if g == nil {
			continue
		}
		var ge dbfmt.Encoder
		ge.U8(uint8(proto))
		ge.Int32s(g.origID)
		ge.Blob(g.eng.Serialize())
		secs = append(secs, dbfmt.Section{Tag: dbfmt.TagGroup, Data: ge.Bytes()})
		// All groups share one algorithm and width; record them from the
		// first group so tools can report them without decoding groups.
		if first {
			h.Algorithm = uint8(g.eng.Algorithm())
			h.Width = uint8(g.eng.VectorWidth())
			first = false
		}
	}
	return dbfmt.Encode(h, secs)
}

// WriteDB writes the serialized rule-group database to w.
func (e *Engine) WriteDB(w io.Writer) (int64, error) {
	n, err := w.Write(e.SerializeDB())
	return int64(n), err
}

// LoadDB restores an Engine from a rule-group database blob: no rule
// text is parsed, and each group is restored by vpatch.Deserialize,
// which compiles the group's patterns. Like NewEngine, a non-nil
// emit attaches a default shard (the engine is then ready to
// HandleSegment) and a nil emit builds none; either way the compiled
// groups are immutable and shared: call NewShard per worker goroutine,
// or NewDispatcher.
func LoadDB(data []byte, emit func(Alert)) (*Engine, error) {
	h, secs, err := dbfmt.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ids: %w", err)
	}
	if h.Kind != dbfmt.KindIDS {
		if h.Kind == dbfmt.KindEngine {
			return nil, fmt.Errorf("ids: database holds a single engine, not an IDS rule-group database (load it with vpatch.Deserialize)")
		}
		return nil, fmt.Errorf("ids: unknown database kind %d", h.Kind)
	}
	psec := dbfmt.FindSection(secs, dbfmt.TagPatterns)
	if psec == nil {
		return nil, fmt.Errorf("ids: database has no pattern section")
	}
	pd := dbfmt.NewDecoder(psec)
	set, err := patterns.DecodeSet(pd)
	if err == nil {
		err = pd.Finish()
	}
	if err != nil {
		return nil, fmt.Errorf("ids: pattern section: %w", err)
	}
	if got := set.Digest(); got != h.Digest {
		return nil, fmt.Errorf("ids: pattern-set digest mismatch (header %#x, decoded %#x)", h.Digest, got)
	}

	e := &Engine{set: set, groups: make(map[vpatch.Protocol]*group)}
	if rsec := dbfmt.FindSection(secs, dbfmt.TagRules); rsec != nil {
		rset, err := rules.DecodeSet(rsec, set)
		if err != nil {
			return nil, fmt.Errorf("ids: rule section: %w", err)
		}
		e.rules = rset
	}
	for _, s := range secs {
		if s.Tag != dbfmt.TagGroup {
			continue
		}
		d := dbfmt.NewDecoder(s.Data)
		proto := vpatch.Protocol(d.U8())
		origID := d.Int32s()
		blob := d.Blob()
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("ids: group section: %w", err)
		}
		if _, dup := e.groups[proto]; dup {
			return nil, fmt.Errorf("ids: duplicate %v group", proto)
		}
		eng, err := vpatch.Deserialize(blob)
		if err != nil {
			return nil, fmt.Errorf("ids: %v group: %w", proto, err)
		}
		if eng.Set().Len() != len(origID) {
			return nil, fmt.Errorf("ids: %v group has %d patterns but %d id mappings",
				proto, eng.Set().Len(), len(origID))
		}
		for _, id := range origID {
			if id < 0 || int(id) >= set.Len() {
				return nil, fmt.Errorf("ids: %v group maps to pattern %d outside the %d-pattern set",
					proto, id, set.Len())
			}
		}
		e.groups[proto] = &group{eng: eng, origID: origID}
	}
	return e.withDefaultShard(emit), nil
}

// ReadDB reads a complete rule-group database from r and restores the
// Engine, with a default shard only when emit is non-nil (see LoadDB).
func ReadDB(r io.Reader, emit func(Alert)) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ids: reading database: %w", err)
	}
	return LoadDB(data, emit)
}

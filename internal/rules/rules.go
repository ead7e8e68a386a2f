// Package rules is the rule-semantics tier above the literal matchers:
// compiled rules whose ordered content clauses (offset/depth/distance/
// within, nocase) and optional regex tails are evaluated over the
// literal-hit streams the multi-pattern engines produce. The engines
// stay pure prefilters — every byte of traffic is still scanned only
// by V-PATCH and friends — and this layer decides which literal hits
// actually complete a rule.
//
// Compilation is case-folded: every nocase content becomes one folded
// literal in the prefilter set, and a case-sensitive content whose
// folded form is already compiled nocase reuses that literal (the
// exact bytes are re-verified against the payload span at evaluation
// time) instead of near-duplicating filter entries. Each literal keeps
// a postings list of the (rule, clause) positions it anchors.
//
// Clause semantics (documented contract, shared by the evaluator, the
// naive reference, and the README's rule-language section; offsets are
// absolute positions in the flow's reassembled stream):
//
//   - clause 0: the match must start at or after `offset` (default 0),
//     and when `depth` is given must end within offset+depth.
//   - clause k>0: the match must start at least `distance` bytes
//     (default 0) after the end of the clause k-1 match, and when
//     `within` is given must end within `within` bytes of that end.
//   - the regex tail, when present, runs anchored at the end of the
//     final clause match, over at most Window bytes of the stream.
//
// A rule alerts at most once per flow; the alert's stream offset is
// the start of the final clause match of the first (lowest-anchor)
// completion whose regex tail verifies.
package rules

import (
	"fmt"

	"vpatch/internal/patterns"
	"vpatch/internal/rules/redfa"
)

// DefaultWindow is how many stream bytes past its anchor a regex tail
// may examine — the verification byte budget.
const DefaultWindow = 512

// maxClauses bounds the clauses of one rule (and the decoder's trust
// in clause counts).
const maxClauses = 64

// Clause is one compiled content condition.
type Clause struct {
	// Lit is the prefilter literal the clause anchors on (an ID in the
	// owning Set's Lits).
	Lit int32
	// Data is the content's exact bytes as written (folded when Nocase).
	Data []byte
	// Nocase requests case-insensitive matching.
	Nocase bool
	// Exact marks a case-sensitive clause riding a shared nocase
	// literal: the prefilter hit is case-insensitive, so the evaluator
	// re-compares Data against the payload span byte for byte.
	Exact bool

	// Clause 0 constraints (absolute stream offsets).
	Offset   int64
	Depth    int64 // meaningful iff HasDepth
	HasDepth bool

	// Clause k>0 constraints (relative to the previous clause's end).
	Distance  int64
	Within    int64 // meaningful iff HasWithin
	HasWithin bool
}

// Rule is one compiled rule.
type Rule struct {
	// ID is the rule's index within its Set; alerts carry it.
	ID int32
	// SID is the rule file's sid option (0 when absent).
	SID int64
	// Msg is the rule's message text.
	Msg string
	// Proto is the traffic class from the rule header; the rule only
	// applies to flows classified to it (Generic applies to every flow).
	Proto patterns.Protocol
	// Clauses are the ordered content conditions (at least one).
	Clauses []Clause
	// Regex is the optional verifier tail (nil = none).
	Regex *redfa.Prog
}

// Posting locates one clause position a literal anchors.
type Posting struct {
	Rule   int32
	Clause int32
}

// Set is a compiled rule set: the rules, the case-folded prefilter
// literal set the engines compile from, and the literal->clause
// postings the evaluator walks. Immutable once built.
type Set struct {
	Rules []Rule
	// Lits is the prefilter literal set. Each literal's Proto is the
	// single protocol of the rules referencing it, or Generic when
	// shared, so the ids group builder places it exactly where its
	// rules' flows are scanned.
	Lits *patterns.Set
	// Window is the regex verification byte budget per anchor.
	Window int64

	post [][]Posting
}

// Postings returns the (rule, clause) positions literal lit anchors.
func (s *Set) Postings(lit int32) []Posting {
	if int(lit) >= len(s.post) {
		return nil
	}
	return s.post[lit]
}

// SIDIndex maps every nonzero sid of the set to the rules carrying it:
// the identity a rule keeps across rule sets (see FlowState.Carry).
func (s *Set) SIDIndex() map[int64][]int32 {
	m := make(map[int64][]int32, len(s.Rules))
	for i := range s.Rules {
		if sid := s.Rules[i].SID; sid != 0 {
			m[sid] = append(m[sid], s.Rules[i].ID)
		}
	}
	return m
}

// parsedClause is the parser's pre-compilation clause form.
type parsedClause struct {
	data   []byte
	nocase bool

	offset   int64
	depth    int64
	hasDepth bool

	distance  int64
	within    int64
	hasWithin bool
}

// parsedRule is the parser's pre-compilation rule form.
type parsedRule struct {
	sid     int64
	msg     string
	proto   patterns.Protocol
	clauses []parsedClause
	regex   string // "/expr/flags" source, empty = none
}

// compile builds the Set from parsed rules: fold nocase literals into
// the prefilter set first, then resolve case-sensitive clauses against
// them, assign literal protocols, and build the postings lists.
func compile(prs []parsedRule, window int64) (*Set, error) {
	if window <= 0 {
		window = DefaultWindow
	}
	s := &Set{Lits: patterns.NewSet(), Window: window}

	// Pass 1: nocase literals, folded once.
	for _, pr := range prs {
		for _, pc := range pr.clauses {
			if pc.nocase {
				s.Lits.Add(pc.data, true, pr.proto)
			}
		}
	}
	// Pass 2: build rules; case-sensitive clauses reuse a folded nocase
	// literal when one exists, else get their own case-sensitive one.
	litProto := map[int32]patterns.Protocol{}
	noteProto := func(lit int32, proto patterns.Protocol) {
		if have, ok := litProto[lit]; !ok {
			litProto[lit] = proto
		} else if have != proto {
			litProto[lit] = patterns.ProtoGeneric
		}
	}
	for _, pr := range prs {
		r := Rule{
			ID:    int32(len(s.Rules)),
			SID:   pr.sid,
			Msg:   pr.msg,
			Proto: pr.proto,
		}
		for ci, pc := range pr.clauses {
			cl := Clause{
				Nocase:    pc.nocase,
				Offset:    pc.offset,
				Depth:     pc.depth,
				HasDepth:  pc.hasDepth,
				Distance:  pc.distance,
				Within:    pc.within,
				HasWithin: pc.hasWithin,
			}
			switch {
			case pc.nocase:
				cl.Data = patterns.Fold(pc.data)
				cl.Lit = s.Lits.Add(pc.data, true, pr.proto)
			default:
				cl.Data = append([]byte(nil), pc.data...)
				if id, ok := s.Lits.Lookup(pc.data, true); ok {
					cl.Lit = id
					cl.Exact = true
				} else {
					cl.Lit = s.Lits.Add(pc.data, false, pr.proto)
				}
			}
			if cl.Lit < 0 {
				return nil, fmt.Errorf("rules: rule %d clause %d: empty content", r.ID, ci)
			}
			noteProto(cl.Lit, pr.proto)
			r.Clauses = append(r.Clauses, cl)
		}
		if pr.regex != "" {
			expr, flags, err := splitPCRE(pr.regex)
			if err != nil {
				return nil, fmt.Errorf("rules: rule %d: %w", r.ID, err)
			}
			prog, err := redfa.Compile(expr, flags)
			if err != nil {
				return nil, fmt.Errorf("rules: rule %d: %w", r.ID, err)
			}
			r.Regex = prog
		}
		s.Rules = append(s.Rules, r)
	}
	// A literal shared across protocols must live in the generic group
	// so every referencing rule's flows are scanned against it.
	pats := s.Lits.Patterns()
	for lit, proto := range litProto {
		pats[lit].Proto = proto
	}
	s.buildPostings()
	return s, nil
}

// buildPostings fills the literal->clause postings lists.
func (s *Set) buildPostings() {
	s.post = make([][]Posting, s.Lits.Len())
	for ri := range s.Rules {
		r := &s.Rules[ri]
		for ci := range r.Clauses {
			lit := r.Clauses[ci].Lit
			s.post[lit] = append(s.post[lit], Posting{Rule: r.ID, Clause: int32(ci)})
		}
	}
}

// splitPCRE splits a Snort pcre value "/expr/flags" into parts. The
// delimiter is the final unescaped-irrelevant slash: expressions may
// contain escaped slashes.
func splitPCRE(v string) (expr, flags string, err error) {
	if len(v) < 2 || v[0] != '/' {
		return "", "", fmt.Errorf("pcre value %q must look like /expr/flags", v)
	}
	end := -1
	for i := len(v) - 1; i > 0; i-- {
		if v[i] == '/' {
			end = i
			break
		}
	}
	if end <= 0 {
		return "", "", fmt.Errorf("pcre value %q has no closing slash", v)
	}
	return v[1:end], v[end+1:], nil
}

package ids

import (
	"slices"
	"strings"
	"testing"

	"vpatch"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/rules"
)

// goldenRules is the rule table: one rules file, one flow's bytes, and
// what the engine raises on them. sids are the rules that complete under
// rule semantics (a rule alerts at most once per flow); lits are the
// literal alerts of the same file read by the literal parser, one per
// occurrence, as pattern bytes. Both are sorted.
var goldenRules = []struct {
	name, rule, data string
	sids             []int64
	lits             []string
}{
	{
		// A msg holding "content:" is not a content option.
		name: "msg-holding-content-colon",
		rule: `alert tcp any any -> any 80 (msg:"uses content: trick"; content:"real"; sid:1;)`,
		data: "GET /real HTTP/1.1",
		sids: []int64{1},
		lits: []string{"real"},
	},
	{
		// A msg holding "; nocase;" does not fold the preceding
		// content.
		name: "msg-holding-nocase",
		rule: `alert tcp any any -> any 80 (content:"abc"; msg:"x; nocase; y"; sid:2;)`,
		data: "ABC abc",
		sids: []int64{2},
		lits: []string{"abc"},
	},
	{
		name: "nocase-folds",
		rule: `alert tcp any any -> any 80 (content:"abc"; nocase; sid:3;)`,
		data: "ABC abc",
		sids: []int64{3},
		lits: []string{"abc", "abc"},
	},
	{
		// The two-content probe: a literal hit on "admin" alone is not
		// the rule.
		name: "two-content-first-only",
		rule: `alert tcp any any -> any 80 (content:"admin"; content:"token="; sid:7;)`,
		data: "GET /admin HTTP/1.1",
		lits: []string{"admin"},
	},
	{
		name: "two-content-both",
		rule: `alert tcp any any -> any 80 (content:"admin"; content:"token="; sid:7;)`,
		data: "GET /admin HTTP/1.1\r\nCookie: token=1",
		sids: []int64{7},
		lits: []string{"admin", "token="},
	},
}

// TestGoldenRules runs every goldenRules case as one FIN-terminated flow
// through an ids shard, under rule semantics and under the literal
// parser, and compares what alerts.
func TestGoldenRules(t *testing.T) {
	for _, tc := range goldenRules {
		t.Run(tc.name, func(t *testing.T) {
			rset, err := rules.ParseRules(strings.NewReader(tc.rule), rules.ParseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			re, err := NewRuleEngine(rset, vpatch.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var sids []int64
			for _, a := range goldenFlow(re, tc.data) {
				sids = append(sids, rset.Rules[a.RuleID].SID)
			}
			slices.Sort(sids)
			if !slices.Equal(sids, tc.sids) {
				t.Errorf("rule semantics: sids %v, want %v", sids, tc.sids)
			}

			set, err := patterns.ParseRules(strings.NewReader(tc.rule), patterns.ParseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			le, err := NewEngine(set, vpatch.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var lits []string
			for _, a := range goldenFlow(le, tc.data) {
				lits = append(lits, string(set.Pattern(a.PatternID).Data))
			}
			slices.Sort(lits)
			if !slices.Equal(lits, tc.lits) {
				t.Errorf("literal: alerts %q, want %q", lits, tc.lits)
			}
		})
	}
}

// goldenFlow sends data through a fresh shard of e as one segment that
// ends the flow, and returns the alerts.
func goldenFlow(e *Engine, data string) []Alert {
	var alerts []Alert
	sh := e.NewShard(func(a Alert) { alerts = append(alerts, a) })
	sh.HandleSegment(netsim.Segment{Flow: key(1, 80), Payload: []byte(data), Flags: netsim.FlagFIN})
	sh.Flush()
	return alerts
}

package rules

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vpatch/internal/patterns"
)

// The Snort-lite rule syntax (the documented subset; see the README's
// "Rule language" section). One rule per non-comment line:
//
//	alert tcp any any -> any 80 (msg:"admin probe"; \
//	    content:"GET /"; offset:0; depth:64; \
//	    content:"admin"; nocase; distance:0; within:200; \
//	    pcre:"/token=[0-9a-f]{8,32}/i"; sid:1001;)
//
// Recognized pieces:
//
//   - The header classifies the rule's traffic class by its ports
//     through the shared patterns.ServicePorts table (same as the
//     literal-only parser), so a rule lands in exactly the ids group
//     its flows are scanned against.
//   - content:"..." with the full Snort escape/hex-block syntax; each
//     content becomes one ordered clause. Negated contents (!"...")
//     are rejected — absence conditions have no prefilter anchor.
//   - Modifiers apply to the preceding content: nocase; offset/depth
//     (first content only — absolute stream positions); distance/
//     within (later contents only — relative to the previous clause).
//   - pcre:"/expr/flags" — at most one, compiled by redfa (see its
//     accepted subset); requires at least one content clause, because
//     the verifier only ever runs at literal-hit anchors.
//   - msg:"..." and sid:N are captured; rev, classtype, reference,
//     priority, metadata, fast_pattern, http_* and any other options
//     are accepted and ignored, so real feed lines parse.
//
// A rule must contain at least one content clause.

// ParseOptions controls rule-set parsing and compilation.
type ParseOptions struct {
	// Window overrides the regex verification byte budget per anchor
	// (0 = DefaultWindow).
	Window int64
}

// ParseRules reads a Snort-lite rule stream and compiles it into a
// rule Set (including the case-folded prefilter literal set).
func ParseRules(r io.Reader, opt ParseOptions) (*Set, error) {
	var prs []parsedRule
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // lines up to 1 MiB; the buffer grows to what the input needs
	lineNo := 0
	var opts []patterns.Option // reused across lines
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pr, err := parseRuleLine(line, &opts)
		if err != nil {
			return nil, fmt.Errorf("rules: line %d: %w", lineNo, err)
		}
		prs = append(prs, pr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	return compile(prs, opt.Window)
}

// parseRuleLine parses one rule into its pre-compilation form; opts is
// the option-token scratch, reused across lines.
func parseRuleLine(line string, opts *[]patterns.Option) (parsedRule, error) {
	pr := parsedRule{proto: patterns.ProtoFromHeader(line)}
	open := strings.IndexByte(line, '(')
	close_ := strings.LastIndexByte(line, ')')
	if open < 0 || close_ < open {
		return pr, fmt.Errorf("rule has no (options) body")
	}
	var err error
	if *opts, err = patterns.SplitOptions(*opts, line[open+1:close_]); err != nil {
		return pr, err
	}
	sawPCRE := false
	for _, o := range *opts {
		key, val := o.Key, o.Val
		switch key {
		case "content":
			pc, err := parseContentOption(val)
			if err != nil {
				return pr, err
			}
			pr.clauses = append(pr.clauses, pc)
			if len(pr.clauses) > maxClauses {
				return pr, fmt.Errorf("rule exceeds %d content clauses", maxClauses)
			}
			if sawPCRE {
				return pr, fmt.Errorf("content after pcre is not supported (the regex tail must come last)")
			}
		case "nocase":
			cl, err := lastClause(&pr)
			if err != nil {
				return pr, err
			}
			cl.nocase = true
		case "offset", "depth":
			cl, err := lastClause(&pr)
			if err != nil {
				return pr, err
			}
			if len(pr.clauses) != 1 {
				return pr, fmt.Errorf("%s applies to the first content only (use distance/within on later contents)", key)
			}
			n, err := parseBound(key, val)
			if err != nil {
				return pr, err
			}
			if key == "offset" {
				cl.offset = n
			} else {
				cl.depth, cl.hasDepth = n, true
			}
		case "distance", "within":
			cl, err := lastClause(&pr)
			if err != nil {
				return pr, err
			}
			if len(pr.clauses) == 1 {
				return pr, fmt.Errorf("%s applies to later contents only (use offset/depth on the first)", key)
			}
			n, err := parseBound(key, val)
			if err != nil {
				return pr, err
			}
			if key == "distance" {
				cl.distance = n
			} else {
				cl.within, cl.hasWithin = n, true
			}
		case "pcre":
			if sawPCRE {
				return pr, fmt.Errorf("at most one pcre option per rule")
			}
			if len(pr.clauses) == 0 {
				return pr, fmt.Errorf("pcre requires a preceding content clause (the verifier never scans standalone)")
			}
			// The quoted pcre body is taken raw (no escape resolution):
			// backslashes inside it are regex escapes, not rule-file ones.
			v := strings.TrimSpace(val)
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return pr, fmt.Errorf("pcre value %q is not quoted", val)
			}
			pr.regex = v[1 : len(v)-1]
			sawPCRE = true
		case "msg":
			v, err := unquote(val)
			if err != nil {
				return pr, fmt.Errorf("msg: %w", err)
			}
			pr.msg = v
		case "sid":
			n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil || n < 0 {
				return pr, fmt.Errorf("bad sid %q", val)
			}
			pr.sid = n
		default:
			// Unknown options (rev, classtype, fast_pattern, http_uri, ...)
			// are accepted and ignored so real feed lines parse.
		}
	}
	if len(pr.clauses) == 0 {
		return pr, fmt.Errorf("rule has no content clause")
	}
	return pr, nil
}

// lastClause returns the clause a modifier applies to.
func lastClause(pr *parsedRule) (*parsedClause, error) {
	if len(pr.clauses) == 0 {
		return nil, fmt.Errorf("modifier before any content")
	}
	return &pr.clauses[len(pr.clauses)-1], nil
}

// parseBound parses a non-negative clause bound.
func parseBound(key, val string) (int64, error) {
	n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
	if err != nil || n < 0 || n > 1<<30 {
		return 0, fmt.Errorf("bad %s %q (want 0..2^30)", key, val)
	}
	return n, nil
}

// parseContentOption decodes one content value: optional negation (an
// error here), then a quoted Snort content body.
func parseContentOption(val string) (parsedClause, error) {
	var pc parsedClause
	v := strings.TrimSpace(val)
	if strings.HasPrefix(v, "!") {
		return pc, fmt.Errorf("negated content is not supported by the rule tier (no prefilter anchor)")
	}
	if !strings.HasPrefix(v, "\"") {
		return pc, fmt.Errorf("content option without quoted string")
	}
	data, consumed, err := patterns.DecodeContent(v[1:])
	if err != nil {
		return pc, err
	}
	if rest := strings.TrimSpace(v[1+consumed:]); rest != "" {
		return pc, fmt.Errorf("trailing junk %q after content string", rest)
	}
	if len(data) == 0 {
		return pc, fmt.Errorf("empty content")
	}
	pc.data = data
	return pc, nil
}

// unquote strips the surrounding quotes of an option value and
// resolves \" and \\ escapes (msg and pcre values).
func unquote(val string) (string, error) {
	v := strings.TrimSpace(val)
	if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
		return "", fmt.Errorf("value %q is not quoted", val)
	}
	v = v[1 : len(v)-1]
	if !strings.ContainsRune(v, '\\') {
		return v, nil
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) && (v[i+1] == '"' || v[i+1] == '\\') {
			i++
		}
		b.WriteByte(v[i])
	}
	return b.String(), nil
}

package patterns

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// LoadSetFile loads a pattern set from disk for the CLI tools: either
// a Snort-style rules file (rulesPath) or a plain file with one
// literal pattern per line (plainPath), exactly one of which must be
// given. Shared by cmd/vpatch-match and cmd/vpatch-compile so the two
// cannot drift.
func LoadSetFile(rulesPath, plainPath string) (*Set, error) {
	switch {
	case rulesPath != "" && plainPath != "":
		return nil, fmt.Errorf("use either -rules or -patterns, not both")
	case rulesPath != "":
		f, err := os.Open(rulesPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ParseRules(f, ParseOptions{})
	case plainPath != "":
		f, err := os.Open(plainPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		set := NewSet()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				set.Add([]byte(line), false, ProtoGeneric)
			}
		}
		return set, sc.Err()
	}
	return NewSet(), nil
}

// ParseOptions controls rule parsing.
type ParseOptions struct {
	// LongestContentOnly keeps only the longest content string of each
	// rule (Snort's multi-pattern matcher registers one content per rule);
	// when false every content string becomes its own pattern.
	LongestContentOnly bool
}

// ParseRules reads a simplified Snort-rule stream and extracts the content
// patterns. Supported syntax per non-comment line:
//
//	alert tcp any any -> any 80 (msg:"..."; content:"GET /admin"; nocase; content:"|0D 0A|"; sid:1;)
//
// Recognized pieces: the protocol hint from the header ports (via the
// shared ServicePorts table: 80/443/8000/8080 → HTTP, 53 → DNS, 21 →
// FTP, 25/587 → SMTP, otherwise generic), any number of
// content:"..." options with Snort escapes (\" \\ \| and |HH HH| hex
// blocks), and a nocase modifier applying to the preceding content.
// Lines starting with '#' and blank lines are skipped.
func ParseRules(r io.Reader, opt ParseOptions) (*Set, error) {
	set := NewSet()
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // lines up to 1 MiB; the buffer grows to what the input needs
	lineNo := 0
	var opts []Option // reused across lines
	var contents []ruleContent
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		proto := ProtoFromHeader(line)
		var err error
		contents, err = parseContents(line, &opts, contents[:0])
		if err != nil {
			return nil, fmt.Errorf("rules: line %d: %w", lineNo, err)
		}
		if len(contents) == 0 {
			continue
		}
		if opt.LongestContentOnly {
			best := contents[0]
			for _, c := range contents[1:] {
				if len(c.data) > len(best.data) {
					best = c
				}
			}
			contents = contents[:1]
			contents[0] = best
		}
		for _, c := range contents {
			set.Add(c.data, c.nocase, proto)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	return set, nil
}

type ruleContent struct {
	data   []byte
	nocase bool
}

// ProtoFromHeader guesses the traffic class from the port fields of the
// rule header, classifying every numeric port through the shared
// ServicePorts table (the same table ids uses to route flows, so the
// two sides cannot drift). The $HTTP_PORTS variable and an "http"
// protocol token keep their HTTP meaning; when several ports classify
// differently, HTTP wins over DNS over FTP over SMTP (the old switch
// order). Both rule parsers classify through it.
func ProtoFromHeader(line string) Protocol {
	paren := strings.IndexByte(line, '(')
	header := line
	if paren >= 0 {
		header = line[:paren]
	}
	rank := func(p Protocol) int {
		switch p {
		case ProtoHTTP:
			return 4
		case ProtoDNS:
			return 3
		case ProtoFTP:
			return 2
		case ProtoSMTP:
			return 1
		}
		return 0
	}
	best := ProtoGeneric
	consider := func(p Protocol) {
		if rank(p) > rank(best) {
			best = p
		}
	}
	for _, f := range strings.Fields(header) {
		if f == "$HTTP_PORTS" {
			consider(ProtoHTTP)
		} else if f[0] >= '0' && f[0] <= '9' {
			// Only a field that starts with a digit can be a port;
			// ParseUint would allocate an error for every other one.
			if n, err := strconv.ParseUint(f, 10, 16); err == nil {
				consider(ProtoForPort(uint16(n)))
			}
		}
	}
	if strings.Contains(header, "http") {
		consider(ProtoHTTP)
	}
	return best
}

// parseContents appends one rule line's prefilter contents (with their
// nocase modifiers) to out. Negated and empty contents are skipped, and
// a nocase after a skipped content modifies nothing. A line without an
// option body has no contents; one whose body is not closed is read to
// its end. opts is the option-token scratch, reused across lines.
func parseContents(line string, opts *[]Option, out []ruleContent) ([]ruleContent, error) {
	open := strings.IndexByte(line, '(')
	if open < 0 {
		return out, nil
	}
	body := line[open+1:]
	if end := strings.LastIndexByte(body, ')'); end >= 0 {
		body = body[:end]
	}
	var err error
	if *opts, err = SplitOptions(*opts, body); err != nil {
		return nil, err
	}
	last := -1 // index in out of the content a nocase modifies
	for _, o := range *opts {
		switch o.Key {
		case "content":
			v := o.Val
			negated := strings.HasPrefix(v, "!")
			if negated {
				v = strings.TrimLeft(v[1:], " \t")
			}
			if !strings.HasPrefix(v, `"`) {
				return nil, fmt.Errorf("content option without quoted string")
			}
			data, _, err := DecodeContent(v[1:])
			if err != nil {
				return nil, err
			}
			last = -1
			// Negated contents are not prefilter patterns.
			if !negated && len(data) > 0 {
				last = len(out)
				out = append(out, ruleContent{data: data})
			}
		case "nocase":
			if last >= 0 {
				out[last].nocase = true
			}
		}
	}
	return out, nil
}

// Option is one semicolon-separated rule option: Key is the token before
// its first colon outside quotes, Val the rest (empty for a flag such as
// nocase). Both are trimmed slices of the option body.
type Option struct {
	Key, Val string
}

// SplitOptions splits a rule's option body (the text between its
// parentheses) on semicolons outside quoted strings, then each token at
// its first colon outside quotes, appending the options to dst[:0] so a
// caller parsing many lines reuses one slice. Both rule parsers walk
// these tokens, so option syntax inside a quoted value (a msg mentioning
// content: or nocase) is never read as an option.
func SplitOptions(dst []Option, body string) ([]Option, error) {
	out := dst[:0]
	inQuote := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			inQuote = !inQuote
		case '\\':
			if inQuote {
				i++ // the escaped byte cannot close the quote
			}
		case ';':
			if !inQuote {
				out = appendOption(out, body[start:i])
				start = i + 1
			}
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quoted string in options")
	}
	return appendOption(out, body[start:]), nil
}

// appendOption parses one semicolon-delimited token (blank ones are
// skipped) into key and value at its first colon outside quotes.
func appendOption(out []Option, tok string) []Option {
	t := strings.TrimSpace(tok)
	if t == "" {
		return out
	}
	q := false
	for i := 0; i < len(t); i++ {
		switch t[i] {
		case '"':
			q = !q
		case '\\':
			if q {
				i++
			}
		case ':':
			if !q {
				return append(out, Option{Key: strings.TrimSpace(t[:i]), Val: strings.TrimSpace(t[i+1:])})
			}
		}
	}
	return append(out, Option{Key: t})
}

// DecodeContent decodes a Snort content body starting just after the
// opening quote (escapes and |HH| hex blocks), returning the decoded
// bytes and the input bytes consumed including the closing quote. Both
// rule parsers decode contents through it, so they share content syntax
// byte for byte.
func DecodeContent(s string) (data []byte, consumed int, err error) {
	var out []byte
	i := 0
	for i < len(s) {
		c := s[i]
		switch c {
		case '"':
			return out, i + 1, nil
		case '\\':
			if i+1 >= len(s) {
				return nil, 0, fmt.Errorf("dangling escape in content")
			}
			nxt := s[i+1]
			switch nxt {
			case '"', '\\', '|', ';', ':':
				out = append(out, nxt)
			default:
				return nil, 0, fmt.Errorf("unknown escape \\%c in content", nxt)
			}
			i += 2
		case '|':
			j := strings.IndexByte(s[i+1:], '|')
			if j < 0 {
				return nil, 0, fmt.Errorf("unterminated hex block in content")
			}
			hex := s[i+1 : i+1+j]
			bytesOut, err := decodeHexBlock(hex)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, bytesOut...)
			i += j + 2
		default:
			out = append(out, c)
			i++
		}
	}
	return nil, 0, fmt.Errorf("unterminated content string")
}

// decodeHexBlock decodes the inside of a |..| hex block: whitespace
// separated pairs of hex digits.
func decodeHexBlock(s string) ([]byte, error) {
	var out []byte
	cur := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' {
			if cur >= 0 {
				return nil, fmt.Errorf("odd hex digit count in |%s|", s)
			}
			continue
		}
		v, ok := hexVal(c)
		if !ok {
			return nil, fmt.Errorf("invalid hex digit %q in |%s|", c, s)
		}
		if cur < 0 {
			cur = int(v)
		} else {
			out = append(out, byte(cur<<4|int(v)))
			cur = -1
		}
	}
	if cur >= 0 {
		return nil, fmt.Errorf("odd hex digit count in |%s|", s)
	}
	return out, nil
}

// EncodeRule renders a pattern as one parseable Snort-style rule line
// (the inverse of ParseRules, up to option ordering). Non-printable
// bytes, quotes, pipes and backslashes are emitted as |HH| hex blocks.
func EncodeRule(p *Pattern, sid int) string {
	var b strings.Builder
	port := "any"
	switch p.Proto {
	case ProtoHTTP:
		port = "80"
	case ProtoDNS:
		port = "53"
	case ProtoFTP:
		port = "21"
	case ProtoSMTP:
		port = "25"
	}
	fmt.Fprintf(&b, "alert tcp any any -> any %s (msg:\"pattern %d\"; content:\"", port, sid)
	inHex := false
	for _, c := range p.Data {
		printable := c >= 0x20 && c < 0x7F && c != '"' && c != '|' && c != '\\' && c != ';' && c != ':'
		if printable {
			if inHex {
				b.WriteByte('|')
				inHex = false
			}
			b.WriteByte(c)
		} else {
			if !inHex {
				b.WriteByte('|')
				inHex = true
			} else {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%02X", c)
		}
	}
	if inHex {
		b.WriteByte('|')
	}
	b.WriteString("\"; ")
	if p.Nocase {
		b.WriteString("nocase; ")
	}
	fmt.Fprintf(&b, "sid:%d;)", sid)
	return b.String()
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

package patterns

import (
	"fmt"
	"strings"
	"testing"
)

func parse(t *testing.T, rules string, opt ParseOptions) *Set {
	t.Helper()
	s, err := ParseRules(strings.NewReader(rules), opt)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	return s
}

func TestParseSimpleContent(t *testing.T) {
	s := parse(t, `alert tcp any any -> any 80 (msg:"x"; content:"GET /admin"; sid:1;)`, ParseOptions{})
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	p := s.Pattern(0)
	if string(p.Data) != "GET /admin" || p.Nocase || p.Proto != ProtoHTTP {
		t.Fatalf("pattern %+v", p)
	}
	// Option syntax inside a quoted value is not an option.
	s = parse(t, `alert tcp any any -> any 80 (msg:"uses content: trick"; content:"real"; sid:1;)`, ParseOptions{})
	if s.Len() != 1 || string(s.Pattern(0).Data) != "real" {
		t.Fatalf("content: inside msg: %d patterns", s.Len())
	}
}

func TestParseNocase(t *testing.T) {
	s := parse(t, `alert tcp any any -> any 80 (content:"CMD.EXE"; nocase; sid:2;)`, ParseOptions{})
	p := s.Pattern(0)
	if !p.Nocase {
		t.Fatal("nocase modifier not applied")
	}
	if string(p.Data) != "cmd.exe" {
		t.Fatalf("nocase pattern not folded: %q", p.Data)
	}
}

func TestParseNocaseBindsToPrecedingContentOnly(t *testing.T) {
	s := parse(t, `alert tcp any any -> any 80 (content:"AAA"; nocase; content:"BBB"; sid:3;)`, ParseOptions{})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Pattern(0).Nocase {
		t.Fatal("first content should be nocase")
	}
	if s.Pattern(1).Nocase {
		t.Fatal("second content should be case-sensitive")
	}
	// A nocase inside a quoted msg is not a modifier.
	s = parse(t, `alert tcp any any -> any 80 (content:"abc"; msg:"x; nocase; y"; sid:2;)`, ParseOptions{})
	if s.Len() != 1 || s.Pattern(0).Nocase {
		t.Fatal("nocase inside msg applied to the content")
	}
}

func TestParseHexBlocks(t *testing.T) {
	s := parse(t, `alert tcp any any -> any any (content:"|0D 0A|end|00|"; sid:4;)`, ParseOptions{})
	p := s.Pattern(0)
	want := []byte{0x0D, 0x0A, 'e', 'n', 'd', 0x00}
	if string(p.Data) != string(want) {
		t.Fatalf("hex decode: got %v want %v", p.Data, want)
	}
}

func TestParseEscapes(t *testing.T) {
	s := parse(t, `alert tcp any any -> any any (content:"a\"b\\c\|d"; sid:5;)`, ParseOptions{})
	if string(s.Pattern(0).Data) != `a"b\c|d` {
		t.Fatalf("escape decode: %q", s.Pattern(0).Data)
	}
}

func TestParseMultipleContentsAndLongestOnly(t *testing.T) {
	rule := `alert tcp any any -> any 80 (content:"ab"; content:"abcdef"; content:"abcd"; sid:6;)`
	all := parse(t, rule, ParseOptions{})
	if all.Len() != 3 {
		t.Fatalf("all contents: %d", all.Len())
	}
	longest := parse(t, rule, ParseOptions{LongestContentOnly: true})
	if longest.Len() != 1 || string(longest.Pattern(0).Data) != "abcdef" {
		t.Fatalf("longest-only kept %d: %q", longest.Len(), longest.Pattern(0).Data)
	}
}

func TestParseSkipsCommentsAndBlank(t *testing.T) {
	s := parse(t, "# comment\n\nalert tcp any any -> any any (content:\"x1\"; sid:7;)\n", ParseOptions{})
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestParseSkipsNegatedContent(t *testing.T) {
	s := parse(t, `alert tcp any any -> any any (content:!"nope"; content:"yes!"; sid:8;)`, ParseOptions{})
	if s.Len() != 1 || string(s.Pattern(0).Data) != "yes!" {
		t.Fatalf("negated content handling wrong: %d patterns", s.Len())
	}
}

func TestParseProtocolGuess(t *testing.T) {
	cases := []struct {
		rule string
		want Protocol
	}{
		{`alert tcp any any -> any 80 (content:"a80a"; sid:1;)`, ProtoHTTP},
		{`alert tcp any any -> any $HTTP_PORTS (content:"ahttp"; sid:1;)`, ProtoHTTP},
		{`alert udp any any -> any 53 (content:"a53a"; sid:1;)`, ProtoDNS},
		{`alert tcp any any -> any 21 (content:"a21a"; sid:1;)`, ProtoFTP},
		{`alert tcp any any -> any 25 (content:"a25a"; sid:1;)`, ProtoSMTP},
		{`alert tcp any any -> any 9999 (content:"a9999"; sid:1;)`, ProtoGeneric},
	}
	for _, c := range cases {
		s := parse(t, c.rule, ParseOptions{})
		if got := s.Pattern(0).Proto; got != c.want {
			t.Errorf("rule %q: proto %v, want %v", c.rule, got, c.want)
		}
	}
}

// TestProtoFromHeaderMatchesServicePorts: the rule parser must classify
// every port in the shared ServicePorts table exactly as flow routing
// does — this is the drift guard for the single port→protocol table
// (443 and 8000 were historically counted as HTTP by the flow side
// only, compiling their rules into every group).
func TestProtoFromHeaderMatchesServicePorts(t *testing.T) {
	for port, want := range ServicePorts {
		line := fmt.Sprintf(`alert tcp any any -> any %d (content:"drift"; sid:1;)`, port)
		if got := ProtoFromHeader(line); got != want {
			t.Errorf("port %d: parser says %v, ServicePorts says %v", port, got, want)
		}
		if got := ProtoForPort(port); got != want {
			t.Errorf("port %d: ProtoForPort says %v, table says %v", port, got, want)
		}
	}
	// Mixed ports pick the higher-priority class (HTTP > DNS > FTP > SMTP).
	if got := ProtoFromHeader(`alert udp any 53 -> any 443 (content:"x"; sid:1;)`); got != ProtoHTTP {
		t.Errorf("mixed 53/443 header classified %v, want HTTP priority", got)
	}
	if got := ProtoForPort(60000); got != ProtoGeneric {
		t.Errorf("unlisted port classified %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`alert tcp any any -> any any (content:"unterminated; sid:1;)`,
		`alert tcp any any -> any any (content:"bad|0|hex"; sid:1;)`,
		`alert tcp any any -> any any (content:"bad|zz|hex"; sid:1;)`,
		`alert tcp any any -> any any (content:"dangling\`,
		`alert tcp any any -> any any (content:"bad\x"; sid:1;)`,
		`alert tcp any any -> any any (content:nope; sid:1;)`,
	}
	for _, rule := range bad {
		if _, err := ParseRules(strings.NewReader(rule), ParseOptions{}); err == nil {
			t.Errorf("rule %q parsed without error", rule)
		}
	}
}

func TestParseHexWhitespaceVariants(t *testing.T) {
	s := parse(t, `alert tcp any any -> any any (content:"|41 42|"; content:"|4142|"; content:"|41	42|"; sid:9;)`, ParseOptions{})
	// All three decode to "AB" and deduplicate to one pattern.
	if s.Len() != 1 || string(s.Pattern(0).Data) != "AB" {
		t.Fatalf("hex whitespace handling: %d patterns", s.Len())
	}
}

func TestEncodeRuleRoundTrip(t *testing.T) {
	src := NewSet()
	src.Add([]byte("GET /admin"), false, ProtoHTTP)
	src.Add([]byte{0x0D, 0x0A, 'x', 0x00}, false, ProtoGeneric)
	src.Add([]byte("CaseLess"), true, ProtoDNS)
	src.Add([]byte(`quotes"and|pipes\`), false, ProtoFTP)
	var rules strings.Builder
	for i := range src.Patterns() {
		rules.WriteString(EncodeRule(&src.Patterns()[i], i+1))
		rules.WriteByte('\n')
	}
	parsed := parse(t, rules.String(), ParseOptions{})
	if parsed.Len() != src.Len() {
		t.Fatalf("round trip lost patterns: %d vs %d\n%s", parsed.Len(), src.Len(), rules.String())
	}
	for i := 0; i < src.Len(); i++ {
		a, b := src.Pattern(int32(i)), parsed.Pattern(int32(i))
		if string(a.Data) != string(b.Data) || a.Nocase != b.Nocase || a.Proto != b.Proto {
			t.Fatalf("pattern %d changed in round trip: %+v vs %+v", i, a, b)
		}
	}
}

func TestEncodeRuleGeneratedSetRoundTrip(t *testing.T) {
	src := GenerateS1(9).Subset(300, 1)
	var rules strings.Builder
	for i := range src.Patterns() {
		rules.WriteString(EncodeRule(&src.Patterns()[i], i+1))
		rules.WriteByte('\n')
	}
	parsed := parse(t, rules.String(), ParseOptions{})
	if parsed.Len() != src.Len() {
		t.Fatalf("round trip lost patterns: %d vs %d", parsed.Len(), src.Len())
	}
	for i := 0; i < src.Len(); i++ {
		if string(src.Pattern(int32(i)).Data) != string(parsed.Pattern(int32(i)).Data) {
			t.Fatalf("pattern %d bytes changed", i)
		}
	}
}

func TestRoundTripThroughNaive(t *testing.T) {
	s := parse(t, `
alert tcp any any -> any 80 (content:"GET"; sid:1;)
alert tcp any any -> any 80 (content:"INDEX.HTML"; nocase; sid:2;)
`, ParseOptions{})
	input := []byte("GET /index.html HTTP/1.1")
	got := FindAllNaive(s, input)
	want := []Match{{0, 0}, {1, 5}}
	if !EqualMatches(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

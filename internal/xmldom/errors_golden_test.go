package xmldom

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// errCase is one malformed input of the parse-error golden. A nil lim
// parses under DefaultLimits.
type errCase struct {
	name string
	src  string
	lim  *Limits
}

// closedCancel is an already-closed cancel channel: a parse polling it
// aborts at its first cancellation check.
var closedCancel = func() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// errCases reach every error site of the parser, every limit and
// cancellation, each at a position that exercises line and column
// tracking (multi-line inputs, a BOM, multi-byte text, CRLF line ends).
var errCases = []errCase{
	{"empty-input", "", nil},
	{"only-comment", "<!-- c -->", nil},
	{"bom-then-text", "\xef\xbb\xbfx", nil},
	{"content-after-root", "<a/>x", nil},
	{"second-root", "<a/>\n<b/>", nil},
	{"unterminated-decl", `<?xml version="1.0"`, nil},
	{"unterminated-doctype", "<!DOCTYPE a [\n<!ELEMENT a ANY>", nil},
	{"unterminated-doctype-literal", `<!DOCTYPE a SYSTEM "x>`, nil},
	{"comment-double-dash", "<a>\n<!-- x -- y -->\n</a>", nil},
	{"comment-unterminated", "<a><!-- x", nil},
	{"pi-reserved-target", "<a>\n  <?xml x?></a>", nil},
	{"pi-reserved-target-prolog", "<?XML?><a/>", nil},
	{"pi-unterminated", "<a><?pi data", nil},
	{"pi-missing-target", "<? x?><a/>", nil},
	{"name-digit-start", "<1a/>", nil},
	{"name-space-start", "< a/>", nil},
	{"end-tag-only", "</a>", nil},
	{"eof-after-name", "<a", nil},
	{"eof-in-start-tag", "<a ", nil},
	{"missing-space-before-attr", `<a b="1"c="2"/>`, nil},
	{"missing-eq", "<a\n  b/>", nil},
	{"unquoted-attr", "<a b=c/>", nil},
	{"lt-in-attr", `<a b="<"/>`, nil},
	{"unterminated-attr", `<a b="x`, nil},
	{"duplicate-attr", "<e\n  a=\"1\"\n  a=\"2\"/>", nil},
	{"duplicate-attr-namespaced", "<e xmlns:a=\"u\" xmlns:b=\"u\"\n  a:x=\"1\" b:x=\"2\"/>", nil},
	{"qname-colon-attr", `<A :=""/>`, nil},
	{"qname-leading-colon", `<:a/>`, nil},
	{"qname-trailing-colon", "<r>\n  <a:/></r>", nil},
	{"qname-second-colon", `<r xmlns:a="u"><a:b:c/></r>`, nil},
	{"qname-attr-leading-colon", `<r :b="1"/>`, nil},
	{"qname-empty-xmlns-prefix", `<r xmlns:="u"/>`, nil},
	{"declare-xmlns-prefix", `<a xmlns:xmlns="u"/>`, nil},
	{"undeclare-prefix", `<a xmlns:p=""/>`, nil},
	{"undeclared-element-prefix", "<r>\n<x:e/></r>", nil},
	{"undeclared-attr-prefix", `<r y:a="1"/>`, nil},
	{"out-of-scope-prefix", `<r><a xmlns:p="u"/><p:b/></r>`, nil},
	{"mismatched-end-tag", "<a>\n  <b></c>\n</a>", nil},
	{"end-tag-junk", "<a></a x>", nil},
	{"multibyte-column", "<a>été</b>", nil},
	{"crlf-lines", "<a>\r\n  <b></c>\r\n</a>", nil},
	{"cdata-unterminated", "<a><![CDATA[x", nil},
	{"cdata-end-in-content", "<a>x]]>y</a>", nil},
	{"eof-in-content", "<a>\n<b>text", nil},
	{"charref-bad-digit", "<a>&#12a;</a>", nil},
	{"charref-bad-hex-digit", "<a>&#x1g;</a>", nil},
	{"charref-out-of-range", "<a>&#x110000;</a>", nil},
	{"charref-empty", "<a>&#;</a>", nil},
	{"charref-unterminated", "<a>&#65", nil},
	{"charref-zero", "<a>&#0;</a>", nil},
	{"charref-surrogate", "<a>&#xD800;</a>", nil},
	{"entity-malformed", "<a>& x</a>", nil},
	{"entity-missing-semicolon", "<a>&amp x</a>", nil},
	{"entity-undefined", "<a>\n&nbsp;</a>", nil},
	{"entity-undefined-in-attr", `<a b="&foo;"/>`, nil},
	{"limit-input", "<r>0123456789</r>", &Limits{MaxInput: 8}},
	{"limit-depth", nested(5), &Limits{MaxDepth: 4}},
	{"limit-depth-default", nested(5000), nil},
	{"limit-attrs", `<e a="1" b="2" c="3"/>`, &Limits{MaxAttrs: 2}},
	{"canceled", string(wideDoc(300)), &Limits{Cancel: closedCancel}},
}

func (c errCase) limits() Limits {
	if c.lim == nil {
		return DefaultLimits
	}
	return *c.lim
}

// TestParseErrorsGolden pins the exact text and Line:Col of every parse
// error. Regenerate with go test -run ParseErrorsGolden -update.
func TestParseErrorsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range errCases {
		_, err := ParseWithLimits([]byte(c.src), c.limits())
		var pe *ParseError
		switch {
		case err == nil:
			t.Errorf("%s: %.60q parsed without error", c.name, c.src)
			fmt.Fprintf(&b, "%s: ok\n", c.name)
		case !errors.As(err, &pe):
			t.Errorf("%s: got %T (%v), want *ParseError", c.name, err, err)
		default:
			fmt.Fprintf(&b, "%s: %d:%d: %s\n", c.name, pe.Line, pe.Col, pe.Msg)
		}
	}
	golden := filepath.Join("testdata", "errors.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with go test -run ParseErrorsGolden -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("parse errors differ from %s\ngot:\n%s", golden, got)
	}
}

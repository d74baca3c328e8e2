package xpath

import (
	"math"
	"strings"
	"testing"

	"goldweb/internal/xmldom"
)

// testDoc is a small multidimensional-model-shaped document used across
// the expression tests.
const testDoc = `<goldmodel id="m1" name="Sales DW">
  <factclasses>
    <factclass id="f1" name="Sales">
      <factatts>
        <factatt id="fa1" name="qty"/>
        <factatt id="fa2" name="inventory" derivationrule="a+b"/>
      </factatts>
      <sharedaggs>
        <sharedagg dimclass="d1" rolea="M" roleb="1"/>
        <sharedagg dimclass="d2" rolea="M" roleb="M"/>
      </sharedaggs>
    </factclass>
    <factclass id="f2" name="Inventory"/>
  </factclasses>
  <dimclasses>
    <dimclass id="d1" name="Time" istime="true">
      <num>10</num><num>20</num><num>12</num>
    </dimclass>
    <dimclass id="d2" name="Product"/>
  </dimclasses>
</goldmodel>`

func doc(t *testing.T) *xmldom.Node {
	t.Helper()
	d, err := xmldom.ParseString(testDoc)
	if err != nil {
		t.Fatalf("parse test doc: %v", err)
	}
	return d
}

// query evaluates src on the IR VM with n as the context node.
func query(n *xmldom.Node, src string) (Value, error) {
	return MustCompile(src).Eval(NewContext(n))
}

func evalOn(t *testing.T, n *xmldom.Node, expr string) Value {
	t.Helper()
	v, err := query(n, expr)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func TestAbsolutePaths(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr string
		n    int
	}{
		{"/goldmodel", 1},
		{"/goldmodel/factclasses/factclass", 2},
		{"/goldmodel/dimclasses/dimclass", 2},
		{"//factatt", 2},
		{"//sharedagg", 2},
		{"/goldmodel/*", 2},
		{"//*", 16},
		{"/nosuch", 0},
	}
	for _, tc := range cases {
		ns, ok := evalOn(t, d, tc.expr).(NodeSet)
		if !ok {
			t.Fatalf("%s: not a node-set", tc.expr)
		}
		if len(ns) != tc.n {
			t.Errorf("%s: got %d nodes, want %d", tc.expr, len(ns), tc.n)
		}
	}
}

func TestRelativePathsAndContext(t *testing.T) {
	d := doc(t)
	fc := d.DescendantElements("factclass")[0]
	ns, _ := evalOn(t, fc, "factatts/factatt").(NodeSet)
	if len(ns) != 2 {
		t.Fatalf("relative path found %d", len(ns))
	}
	v := evalOn(t, fc, "@name")
	if ToString(v) != "Sales" {
		t.Errorf("@name = %q", ToString(v))
	}
	v = evalOn(t, fc, "..")
	if ns := v.(NodeSet); len(ns) != 1 || ns[0].Name != "factclasses" {
		t.Errorf(".. = %v", ns)
	}
	v = evalOn(t, fc, ".")
	if ns := v.(NodeSet); len(ns) != 1 || ns[0] != fc {
		t.Errorf(". should be self")
	}
}

func TestPredicates(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr, want string
	}{
		{"//factclass[1]/@name", "Sales"},
		{"//factclass[2]/@name", "Inventory"},
		{"//factclass[last()]/@name", "Inventory"},
		{"//factclass[@id='f2']/@name", "Inventory"},
		{"//factatt[@derivationrule]/@name", "inventory"},
		{"//dimclass[@istime='true']/@name", "Time"},
		{"//factclass[factatts]/@name", "Sales"},
		{"//sharedagg[@rolea='M' and @roleb='M']/@dimclass", "d2"},
		{"//factclass[position()=2]/@id", "f2"},
	}
	for _, tc := range cases {
		got := ToString(evalOn(t, d, tc.expr))
		if got != tc.want {
			t.Errorf("%s = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

func TestNestedPredicates(t *testing.T) {
	d := doc(t)
	got := ToString(evalOn(t, d, "//factclass[sharedaggs/sharedagg[@roleb='M']]/@name"))
	if got != "Sales" {
		t.Errorf("nested predicate = %q", got)
	}
}

func TestAxes(t *testing.T) {
	d := doc(t)
	fa2 := d.DescendantElements("factatt")[1]
	cases := []struct {
		expr string
		n    int
	}{
		{"ancestor::*", 4},
		{"ancestor-or-self::*", 5},
		{"ancestor::factclass", 1},
		{"preceding-sibling::factatt", 1},
		{"following-sibling::factatt", 0},
		{"self::factatt", 1},
		{"self::other", 0},
		{"descendant-or-self::node()", 1},
		{"following::sharedagg", 2},
		{"preceding::factatt", 1},
		{"parent::factatts", 1},
	}
	for _, tc := range cases {
		ns := evalOn(t, fa2, tc.expr).(NodeSet)
		if len(ns) != tc.n {
			t.Errorf("%s: got %d, want %d", tc.expr, len(ns), tc.n)
		}
	}
}

func TestReverseAxisPosition(t *testing.T) {
	d := doc(t)
	nums := d.DescendantElements("num")
	last := nums[2]
	// preceding-sibling::num[1] is the nearest preceding num (20).
	got := ToString(evalOn(t, last, "preceding-sibling::num[1]"))
	if got != "20" {
		t.Errorf("preceding-sibling::num[1] = %q, want 20", got)
	}
	got = ToString(evalOn(t, last, "preceding-sibling::num[2]"))
	if got != "10" {
		t.Errorf("preceding-sibling::num[2] = %q, want 10", got)
	}
	// ancestor::*[1] is the immediate parent.
	got = ToString(evalOn(t, last, "name(ancestor::*[1])"))
	if got != "dimclass" {
		t.Errorf("ancestor::*[1] = %q", got)
	}
}

func TestAttributeAxis(t *testing.T) {
	d := doc(t)
	ns := evalOn(t, d, "//factclass[1]/@*").(NodeSet)
	if len(ns) != 2 {
		t.Fatalf("@* found %d", len(ns))
	}
	// Attributes are not children.
	ns = evalOn(t, d, "//factclass[1]/node()").(NodeSet)
	for _, n := range ns {
		if n.Type == xmldom.AttrNode {
			t.Error("attribute returned from child axis")
		}
	}
}

func TestUnion(t *testing.T) {
	d := doc(t)
	ns := evalOn(t, d, "//factclass | //dimclass").(NodeSet)
	if len(ns) != 4 {
		t.Fatalf("union size = %d", len(ns))
	}
	// Document order: factclasses before dimclasses.
	if ns[0].AttrValue("id") != "f1" || ns[3].AttrValue("id") != "d2" {
		t.Errorf("union order wrong: %s..%s", ns[0].AttrValue("id"), ns[3].AttrValue("id"))
	}
	// Duplicates are removed.
	ns = evalOn(t, d, "//factclass | //factclass[1]").(NodeSet)
	if len(ns) != 2 {
		t.Errorf("dedup failed: %d", len(ns))
	}
}

func TestArithmetic(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 div 4", 2.5},
		{"10 mod 3", 1},
		{"-3 + 1", -2},
		{"2 - 1 - 1", 0},
		{"count(//factclass) + count(//dimclass)", 4},
		{"sum(//num)", 42},
		{"floor(2.7)", 2},
		{"ceiling(2.1)", 3},
		{"round(2.5)", 3},
		{"round(-2.5)", -2},
	}
	for _, tc := range cases {
		got := ToNumber(evalOn(t, d, tc.expr))
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
	if !math.IsNaN(ToNumber(evalOn(t, d, "number('abc')"))) {
		t.Error("number('abc') should be NaN")
	}
	if got := ToNumber(evalOn(t, d, "1 div 0")); !math.IsInf(got, 1) {
		t.Errorf("1 div 0 = %v", got)
	}
}

func TestComparisons(t *testing.T) {
	d := doc(t)
	boolCases := []struct {
		expr string
		want bool
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{"'a' = 'a'", true},
		{"'a' != 'b'", true},
		{"1 = '1'", true},
		{"true() = 1", true},
		{"//num = 20", true},         // existential
		{"//num = 99", false},        // none match
		{"//num > 15", true},         // some > 15
		{"//num < 5", false},         // none < 5
		{"//nosuch = //num", false},  // empty node-set
		{"not(//nosuch)", true},      // empty is false
		{"//nosuch = false()", true}, // ns vs boolean
		{"count(//num[. > 11]) = 2", true},
	}
	for _, tc := range boolCases {
		got := ToBool(evalOn(t, d, tc.expr))
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestStringFunctions(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr, want string
	}{
		{"concat('a', 'b', 'c')", "abc"},
		{"substring('12345', 2, 3)", "234"},
		{"substring('12345', 2)", "2345"},
		{"substring('12345', 1.5, 2.6)", "234"}, // spec example
		{"substring('12345', 0)", "12345"},
		{"substring-before('1999/04/01', '/')", "1999"},
		{"substring-after('1999/04/01', '/')", "04/01"},
		{"normalize-space('  a   b ')", "a b"},
		{"translate('bar', 'abc', 'ABC')", "BAr"},
		{"translate('--aaa--', 'abc-', 'ABC')", "AAA"},
		{"string(12)", "12"},
		{"string(12.5)", "12.5"},
		{"string(//factclass[1]/@name)", "Sales"},
		{"string(true())", "true"},
	}
	for _, tc := range cases {
		got := ToString(evalOn(t, d, tc.expr))
		if got != tc.want {
			t.Errorf("%s = %q, want %q", tc.expr, got, tc.want)
		}
	}
	if !ToBool(evalOn(t, d, "starts-with('goldmodel', 'gold')")) {
		t.Error("starts-with failed")
	}
	if !ToBool(evalOn(t, d, "contains('goldmodel', 'dmo')")) {
		t.Error("contains failed")
	}
	if got := ToNumber(evalOn(t, d, "string-length('héllo')")); got != 5 {
		t.Errorf("string-length rune counting = %v", got)
	}
}

func TestNameFunctions(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr, want string
	}{
		{"name(/goldmodel)", "goldmodel"},
		{"local-name(//factclass[1]/@id)", "id"},
		{"name(//nosuch)", ""},
	}
	for _, tc := range cases {
		if got := ToString(evalOn(t, d, tc.expr)); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

func TestIDFunction(t *testing.T) {
	d := doc(t)
	ns := evalOn(t, d, "id('d1')").(NodeSet)
	if len(ns) != 1 || ns[0].AttrValue("name") != "Time" {
		t.Fatalf("id('d1') = %v", ns)
	}
	ns = evalOn(t, d, "id('d1 f2')").(NodeSet)
	if len(ns) != 2 {
		t.Errorf("multi-id = %d nodes", len(ns))
	}
	// id() via a referencing attribute (like keyref resolution).
	got := ToString(evalOn(t, d, "id(//sharedagg[1]/@dimclass)/@name"))
	if got != "Time" {
		t.Errorf("id(@dimclass) = %q", got)
	}
}

func TestVariables(t *testing.T) {
	d := doc(t)
	e := MustCompile("//factclass[@id=$want]/@name")
	ctx := NewContext(d)
	ctx.Vars = map[string]Value{"want": String("f2")}
	v, err := e.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ToString(v) != "Inventory" {
		t.Errorf("var result = %q", ToString(v))
	}
	ctx.Vars = nil
	if _, err := e.Eval(ctx); err == nil {
		t.Error("unbound variable should error")
	}
}

func TestFilterExprWithPath(t *testing.T) {
	d := doc(t)
	got := ToString(evalOn(t, d, "(//factclass)[2]/@name"))
	if got != "Inventory" {
		t.Errorf("(//factclass)[2] = %q", got)
	}
	got = ToString(evalOn(t, d, "id('f1')/factatts/factatt[1]/@name"))
	if got != "qty" {
		t.Errorf("filter path = %q", got)
	}
}

func TestNodeTypeTests(t *testing.T) {
	d := xmldom.MustParseString(`<r>text<!--c--><?pi data?><e/>more</r>`)
	if n := len(evalOn(t, d, "/r/text()").(NodeSet)); n != 2 {
		t.Errorf("text() = %d", n)
	}
	if n := len(evalOn(t, d, "/r/comment()").(NodeSet)); n != 1 {
		t.Errorf("comment() = %d", n)
	}
	if n := len(evalOn(t, d, "/r/processing-instruction()").(NodeSet)); n != 1 {
		t.Errorf("pi() = %d", n)
	}
	if n := len(evalOn(t, d, "/r/processing-instruction('pi')").(NodeSet)); n != 1 {
		t.Errorf("pi('pi') = %d", n)
	}
	if n := len(evalOn(t, d, "/r/processing-instruction('other')").(NodeSet)); n != 0 {
		t.Errorf("pi('other') = %d", n)
	}
	if n := len(evalOn(t, d, "/r/node()").(NodeSet)); n != 5 {
		t.Errorf("node() = %d", n)
	}
}

func TestNamespaceTests(t *testing.T) {
	d := xmldom.MustParseString(`<r xmlns:a="urn:a"><a:x/><x/><a:y/></r>`)
	e := MustCompile("//p:*")
	ctx := NewContext(d)
	ctx.NS = map[string]string{"p": "urn:a"}
	v, err := e.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.(NodeSet)) != 2 {
		t.Errorf("ns wildcard = %d", len(v.(NodeSet)))
	}
	e = MustCompile("//p:x")
	v, err = e.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.(NodeSet)) != 1 {
		t.Errorf("prefixed name = %d", len(v.(NodeSet)))
	}
	// Unprefixed tests match only the null namespace.
	if n := len(evalOn(t, d, "//x").(NodeSet)); n != 1 {
		t.Errorf("unprefixed matched %d", n)
	}
	// Undeclared prefix errors.
	e = MustCompile("//q:x")
	if _, err := e.Eval(NewContext(d)); err == nil {
		t.Error("undeclared prefix should error")
	}
}

func TestNumberFormatting(t *testing.T) {
	cases := []struct {
		f    float64
		want string
	}{
		{1, "1"},
		{-1, "-1"},
		{0, "0"},
		{1.5, "1.5"},
		{0.1, "0.1"},
		{100000, "100000"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "Infinity"},
		{math.Inf(-1), "-Infinity"},
		{-0.0, "0"},
	}
	for _, tc := range cases {
		if got := FormatNumber(tc.f); got != tc.want {
			t.Errorf("FormatNumber(%v) = %q, want %q", tc.f, got, tc.want)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"", "//", "foo[", "foo]", "1 +", "@", "foo::bar", "$", "'unterminated",
		"foo(", "a b", "..[1", "child::", "!", "1 ! 2",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	d := doc(t)
	bad := []string{
		"nosuchfn()",
		"count('notanodeset')",
		"sum(1)",
		"1 | 2",
	}
	for _, src := range bad {
		if _, err := query(d, src); err == nil {
			t.Errorf("%q should fail at runtime", src)
		}
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	exprs := []string{
		"/goldmodel/factclasses/factclass",
		"//factclass[@id='f1']/@name",
		"count(//dimclass) > 1",
		"concat(@a, 'x', $v)",
		"a | b | c",
		"ancestor-or-self::node()",
		"-1 + 2 * 3",
	}
	d := doc(t)
	for _, src := range exprs {
		e1 := MustCompile(src)
		e2, err := Compile(e1.String())
		if err != nil {
			t.Errorf("reparse of %q → %q failed: %v", src, e1.String(), err)
			continue
		}
		ctx := NewContext(d)
		ctx.Vars = map[string]Value{"v": String("z")}
		v1, err1 := e1.Eval(ctx)
		v2, err2 := e2.Eval(ctx)
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%q: eval divergence", src)
			continue
		}
		if err1 == nil && ToString(v1) != ToString(v2) {
			t.Errorf("%q: %q != %q", src, ToString(v1), ToString(v2))
		}
	}
}

func TestOperatorNameDisambiguation(t *testing.T) {
	d := xmldom.MustParseString(`<r><div>5</div><mod>3</mod><and>1</and></r>`)
	// Element names that collide with operator names still parse as names
	// in node-test position.
	if got := ToString(evalOn(t, d, "string(/r/div)")); got != "5" {
		t.Errorf("div element = %q", got)
	}
	if got := ToNumber(evalOn(t, d, "/r/div div /r/mod")); math.Abs(got-5.0/3.0) > 1e-9 {
		t.Errorf("div operator = %v", got)
	}
	if got := ToNumber(evalOn(t, d, "/r/div * 2")); got != 10 {
		t.Errorf("multiply = %v", got)
	}
	if !ToBool(evalOn(t, d, "/r/and and true()")) {
		t.Error("and disambiguation failed")
	}
}

func TestDescendantShorthandSemantics(t *testing.T) {
	d := xmldom.MustParseString(`<a><b><c>1</c></b><b><c>2</c><c>3</c></b></a>`)
	// //c[1] selects the first c of each parent (2 nodes), not the first
	// c in the document.
	ns := evalOn(t, d, "//c[1]").(NodeSet)
	if len(ns) != 2 {
		t.Fatalf("//c[1] = %d nodes, want 2", len(ns))
	}
	// (//c)[1] selects exactly the first in document order.
	ns = evalOn(t, d, "(//c)[1]").(NodeSet)
	if len(ns) != 1 || ns[0].StringValue() != "1" {
		t.Errorf("(//c)[1] wrong: %v", ns)
	}
}

func TestLangFunction(t *testing.T) {
	d := xmldom.MustParseString(`<r xml:lang="en-US"><child/></r>`)
	child := d.DocumentElement().Elements()[0]
	if !ToBool(evalOn(t, child, "lang('en')")) {
		t.Error("lang('en') should match en-US via inheritance")
	}
	if ToBool(evalOn(t, child, "lang('es')")) {
		t.Error("lang('es') should not match")
	}
}

func TestEvalNodes(t *testing.T) {
	d := doc(t)
	nodes, err := MustCompile("//factclass").EvalNodes(NewContext(d))
	if err != nil || len(nodes) != 2 {
		t.Fatalf("EvalNodes: %v, %d", err, len(nodes))
	}
	if _, err := MustCompile("1+1").EvalNodes(NewContext(d)); err == nil {
		t.Error("EvalNodes on number should error")
	}
	if s := ToString(evalOn(t, d, "//dimclass[1]/@name")); s != "Time" {
		t.Errorf("//dimclass[1]/@name = %q", s)
	}
}

func TestWhitespaceTolerantParsing(t *testing.T) {
	d := doc(t)
	exprs := []string{
		" //factclass [ @id = 'f1' ] / @name ",
		"//factclass\n[@id='f1']/@name",
	}
	for _, src := range exprs {
		if got := ToString(evalOn(t, d, src)); got != "Sales" {
			t.Errorf("%q = %q", src, got)
		}
	}
}

func TestLargeDocPositionSemantics(t *testing.T) {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 100; i++ {
		b.WriteString("<item/>")
	}
	b.WriteString("</root>")
	d := xmldom.MustParseString(b.String())
	if got := ToNumber(evalOn(t, d, "count(/root/item)")); got != 100 {
		t.Fatalf("count = %v", got)
	}
	if got := ToNumber(evalOn(t, d, "count(/root/item[position() > 50])")); got != 50 {
		t.Errorf("position filter = %v", got)
	}
	if got := ToNumber(evalOn(t, d, "count(/root/item[position() mod 2 = 0])")); got != 50 {
		t.Errorf("mod filter = %v", got)
	}
}

func TestRemainingFunctionCoverage(t *testing.T) {
	d := xmldom.MustParseString(`<r xmlns:p="urn:x"><p:e/></r>`)
	cases := []struct{ expr, want string }{
		{"namespace-uri(/r/*)", "urn:x"},
		{"namespace-uri(/r)", ""},
		{"string(boolean('x'))", "true"},
		{"string(boolean(''))", "false"},
	}
	for _, tc := range cases {
		got := ToString(evalOn(t, d, tc.expr))
		if got != tc.want {
			t.Errorf("%s = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

func TestValueConversionsDirect(t *testing.T) {
	if ToNumber(Boolean(true)) != 1 || ToNumber(Boolean(false)) != 0 {
		t.Error("bool → number")
	}
	d := xmldom.MustParseString(`<r>41</r>`)
	if ToNumber(NodeSet{d}) != 41 {
		t.Error("node-set → number")
	}
	if !math.IsNaN(ToNumber(nil)) || ToString(nil) != "" || ToBool(nil) {
		t.Error("nil conversions")
	}
	if ToNumber(String(" 7 ")) != 7 {
		t.Error("whitespace-trimmed string → number")
	}
	if !math.IsNaN(ToNumber(String("1e3"))) {
		t.Error("exponent notation must be NaN in XPath 1.0")
	}
}

func TestErrorStringsAndPatternString(t *testing.T) {
	_, err := Compile("1 +")
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Errorf("syntax error rendering: %v", err)
	}
	p := MustCompilePattern("a/b | c")
	if p.String() != "a/b | c" {
		t.Errorf("pattern String = %q", p.String())
	}
}

package xpath

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"goldweb/internal/xmldom"
)

// TestNumberFormatRoundTrip: FormatNumber output re-parses to the same
// value via the XPath string→number rules for all finite doubles.
func TestNumberFormatRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		s := FormatNumber(x)
		back := stringToNumber(s)
		return back == x || (x == 0 && back == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestComparisonMatchesGo: XPath numeric comparisons agree with Go's for
// finite operands.
func TestComparisonMatchesGo(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		doc := xmldom.MustParseString("<r/>")
		for _, tc := range []struct {
			op   string
			want bool
		}{
			{"<", a < b}, {"<=", a <= b}, {">", a > b}, {">=", a >= b},
			{"=", a == b}, {"!=", a != b},
		} {
			expr := fmt.Sprintf("%s %s %s", FormatNumber(a), tc.op, FormatNumber(b))
			v, err := query(doc, expr)
			if err != nil {
				return false
			}
			if ToBool(v) != tc.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestUnionProperties: union is commutative and idempotent on node-sets.
func TestUnionProperties(t *testing.T) {
	doc := xmldom.MustParseString(`<r><a/><b/><a/><c><a/><b/></c></r>`)
	pairs := [][2]string{
		{"//a", "//b"},
		{"//a", "//a"},
		{"/r/*", "//c/*"},
		{"//a", "/nothing"},
	}
	for _, p := range pairs {
		ab, err := query(doc, p[0]+" | "+p[1])
		if err != nil {
			t.Fatal(err)
		}
		ba, err := query(doc, p[1]+" | "+p[0])
		if err != nil {
			t.Fatal(err)
		}
		nsAB, nsBA := ab.(NodeSet), ba.(NodeSet)
		if len(nsAB) != len(nsBA) {
			t.Errorf("%v: |%d| != |%d|", p, len(nsAB), len(nsBA))
			continue
		}
		for i := range nsAB {
			if nsAB[i] != nsBA[i] {
				t.Errorf("%v: order differs at %d", p, i)
				break
			}
		}
	}
}

// TestNodeSetAlwaysDocOrder: any path expression yields nodes in document
// order without duplicates.
func TestNodeSetAlwaysDocOrder(t *testing.T) {
	doc := xmldom.MustParseString(`<r><a><b/><b/></a><a><b/></a><c><a><b/></a></c></r>`)
	exprs := []string{
		"//b", "//a//b", "//a | //b", "//b/ancestor::*",
		"//b/preceding::*", "//b/following::*", "/r/*/*",
		"//a[2]/b | //a[1]/b",
	}
	for _, src := range exprs {
		v, err := query(doc, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		ns := v.(NodeSet)
		for i := 1; i < len(ns); i++ {
			if ns[i-1] == ns[i] {
				t.Errorf("%s: duplicate at %d", src, i)
			}
			if ns[i-1].DocOrder() >= ns[i].DocOrder() {
				t.Errorf("%s: out of document order at %d", src, i)
			}
		}
	}
}

// TestPositionIndexing: //i[k] selects exactly the kth child for any k.
func TestPositionIndexing(t *testing.T) {
	const n = 20
	var b strings.Builder
	b.WriteString("<r>")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "<i v='%d'/>", i)
	}
	b.WriteString("</r>")
	doc := xmldom.MustParseString(b.String())
	for k := 1; k <= n; k++ {
		v, err := query(doc, fmt.Sprintf("string(/r/i[%d]/@v)", k))
		if err != nil {
			t.Fatal(err)
		}
		if got := ToString(v); got != fmt.Sprint(k) {
			t.Errorf("i[%d] = %q", k, got)
		}
	}
	// Out of range selects nothing.
	v, _ := query(doc, fmt.Sprintf("/r/i[%d]", n+1))
	if len(v.(NodeSet)) != 0 {
		t.Error("out-of-range index matched")
	}
}

// TestStringFunctionProperties: concat length, substring containment,
// translate idempotence on disjoint maps.
func TestStringFunctionProperties(t *testing.T) {
	doc := xmldom.MustParseString("<r/>")
	f := func(a, b string) bool {
		// Avoid quote chars that would break the literal syntax.
		clean := func(s string) string {
			s = strings.ReplaceAll(s, `'`, "")
			s = strings.ReplaceAll(s, `"`, "")
			return s
		}
		a, b = clean(a), clean(b)
		v, err := query(doc, fmt.Sprintf("string-length(concat('%s','%s'))", a, b))
		if err != nil {
			return false
		}
		return int(ToNumber(v)) == len([]rune(a))+len([]rune(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBooleanAlgebra: and/or/not behave like Go booleans.
func TestBooleanAlgebra(t *testing.T) {
	doc := xmldom.MustParseString("<r/>")
	lit := func(b bool) string {
		if b {
			return "true()"
		}
		return "false()"
	}
	f := func(a, b bool) bool {
		for _, tc := range []struct {
			expr string
			want bool
		}{
			{lit(a) + " and " + lit(b), a && b},
			{lit(a) + " or " + lit(b), a || b},
			{"not(" + lit(a) + ")", !a},
			{"not(" + lit(a) + " and " + lit(b) + ") = (not(" + lit(a) + ") or not(" + lit(b) + "))", true},
		} {
			v, err := query(doc, tc.expr)
			if err != nil || ToBool(v) != tc.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestArithmeticProperties: div/mod relation a = (a div b)*b + remainder
// structure for integers (XPath mod follows the dividend's sign).
func TestArithmeticProperties(t *testing.T) {
	doc := xmldom.MustParseString("<r/>")
	f := func(a int16, b int16) bool {
		if b == 0 {
			return true
		}
		expr := fmt.Sprintf("(%d mod %d) = (%d - (floor(%d div %d) * %d))",
			a, b, a, a, b, b)
		// floor(div) only matches truncation when signs agree; restrict.
		if (a < 0) != (b < 0) {
			return true
		}
		v, err := query(doc, expr)
		return err == nil && ToBool(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

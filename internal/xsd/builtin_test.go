package xsd

import (
	"fmt"
	"strings"
	"testing"
)

// TestBuiltinTypeLexicalSpaces drives every supported built-in type with
// accepting and rejecting lexical values.
func TestBuiltinTypeLexicalSpaces(t *testing.T) {
	cases := []struct {
		typ  string
		good []string
		bad  []string
	}{
		{"string", []string{"", "anything at all", " spaces "}, nil},
		{"normalizedString", []string{"a b"}, nil},
		{"token", []string{"a b"}, nil},
		{"boolean", []string{"true", "false", "0", "1"}, []string{"TRUE", "yes", "2", ""}},
		{"decimal", []string{"3.14", "-2", "0"}, []string{"three", ""}},
		{"float", []string{"1.5", "-0.25"}, []string{"NaN?", "x"}},
		{"double", []string{"2.75"}, []string{"--1"}},
		{"integer", []string{"42", "-7", "0"}, []string{"1.5", "a", ""}},
		{"int", []string{"2147483647", "-2147483648"}, []string{"2147483648", "-2147483649"}},
		{"long", []string{"9223372036854775807"}, []string{"9223372036854775808"}},
		{"short", []string{"32767", "-32768"}, []string{"32768"}},
		{"byte", []string{"127", "-128"}, []string{"128", "-129"}},
		{"nonNegativeInteger", []string{"0", "12"}, []string{"-1"}},
		{"positiveInteger", []string{"1", "99"}, []string{"0", "-3"}},
		{"nonPositiveInteger", []string{"0", "-5"}, []string{"2"}},
		{"negativeInteger", []string{"-1"}, []string{"0", "1"}},
		{"unsignedInt", []string{"0", "4294967295"}, []string{"-1", "4294967296"}},
		{"date", []string{"2002-03-24"}, []string{"24-03-2002", "2002-13-01", "2002-02-30", "today"}},
		{"dateTime", []string{"2002-03-24T10:30:00", "2002-03-24T10:30:00+01:00"}, []string{"2002-03-24", "10:30"}},
		{"time", []string{"10:30:00"}, []string{"25:00:00", "10:30"}},
		{"gYear", []string{"2002", "1999"}, []string{"02", "year", "20022"}},
		{"ID", []string{"a1", "_x", "a-b.c"}, []string{"1a", "a b", "", "a:b"}},
		{"IDREF", []string{"ref1"}, []string{"9ref"}},
		{"NCName", []string{"name"}, []string{"pre:fix"}},
		{"Name", []string{"name", "pre:fix"}, []string{"a:b:c", "9x"}},
		{"QName", []string{"local", "p:local"}, []string{":x", "a:b:c"}},
		{"NMTOKEN", []string{"123", "a-b"}, []string{"", "a b"}},
		{"anyURI", []string{"http://x/y", "relative/path"}, nil},
		{"language", []string{"en", "en-US"}, []string{""}},
	}
	for _, tc := range cases {
		kind, ok := builtinByName[tc.typ]
		if !ok {
			t.Errorf("type %s not registered", tc.typ)
			continue
		}
		for _, v := range tc.good {
			if err := checkBuiltin(kind, v); err != nil {
				t.Errorf("%s: %q rejected: %v", tc.typ, v, err)
			}
		}
		for _, v := range tc.bad {
			if err := checkBuiltin(kind, v); err == nil {
				t.Errorf("%s: %q accepted", tc.typ, v)
			}
		}
	}
}

// TestBuiltinTypesThroughSchema wires a representative subset through a
// real schema so the whitespace normalization path is covered too.
func TestBuiltinTypesThroughSchema(t *testing.T) {
	for _, tc := range []struct {
		typ, value string
		valid      bool
	}{
		{"xsd:integer", "  42  ", true}, // collapse facet applies
		{"xsd:boolean", " true ", true},
		{"xsd:date", " 2002-01-01 ", true},
		{"xsd:integer", "4 2", false},
		{"xsd:string", "  keep  me  ", true},
	} {
		schema := fmt.Sprintf(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
			<xsd:element name="e" type="%s"/></xsd:schema>`, tc.typ)
		s, err := ParseSchemaString(schema)
		if err != nil {
			t.Fatal(err)
		}
		errs := s.ValidateString("<e>"+tc.value+"</e>", ValidateOptions{})
		if (len(errs) == 0) != tc.valid {
			t.Errorf("%s %q: valid=%v want %v (%v)", tc.typ, tc.value, len(errs) == 0, tc.valid, errs)
		}
	}
}

func TestIDREFSType(t *testing.T) {
	schema := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
		<xsd:element name="r"><xsd:complexType><xsd:sequence>
			<xsd:element name="n" maxOccurs="unbounded"><xsd:complexType>
				<xsd:attribute name="id" type="xsd:ID" use="required"/>
				<xsd:attribute name="refs" type="xsd:IDREFS"/>
			</xsd:complexType></xsd:element>
		</xsd:sequence></xsd:complexType></xsd:element></xsd:schema>`
	s, err := ParseSchemaString(schema)
	if err != nil {
		t.Fatal(err)
	}
	if errs := s.ValidateString(`<r><n id="a" refs="b c"/><n id="b"/><n id="c"/></r>`, ValidateOptions{}); len(errs) != 0 {
		t.Errorf("valid IDREFS rejected: %v", errs)
	}
	errs := s.ValidateString(`<r><n id="a" refs="b ghost"/><n id="b"/></r>`, ValidateOptions{})
	if len(errs) == 0 {
		t.Error("dangling IDREFS accepted")
	}
}

func TestWhiteSpaceFacet(t *testing.T) {
	schema := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
		<xsd:simpleType name="Collapsed"><xsd:restriction base="xsd:string">
			<xsd:whiteSpace value="collapse"/><xsd:enumeration value="a b"/>
		</xsd:restriction></xsd:simpleType>
		<xsd:element name="e" type="Collapsed"/></xsd:schema>`
	s, err := ParseSchemaString(schema)
	if err != nil {
		t.Fatal(err)
	}
	// Collapsing makes "  a   b " match the enumeration "a b".
	if errs := s.ValidateString("<e>  a   b </e>", ValidateOptions{}); len(errs) != 0 {
		t.Errorf("collapse facet not applied: %v", errs)
	}
	if errs := s.ValidateString("<e>a c</e>", ValidateOptions{}); len(errs) == 0 {
		t.Error("wrong value accepted")
	}
}

func TestExclusiveRangeFacets(t *testing.T) {
	schema := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
		<xsd:simpleType name="Open"><xsd:restriction base="xsd:decimal">
			<xsd:minExclusive value="0"/><xsd:maxExclusive value="1"/>
		</xsd:restriction></xsd:simpleType>
		<xsd:element name="e" type="Open"/></xsd:schema>`
	s, err := ParseSchemaString(schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v     string
		valid bool
	}{{"0.5", true}, {"0", false}, {"1", false}, {"0.0001", true}, {"-1", false}} {
		errs := s.ValidateString("<e>"+tc.v+"</e>", ValidateOptions{})
		if (len(errs) == 0) != tc.valid {
			t.Errorf("%s: valid=%v want %v", tc.v, len(errs) == 0, tc.valid)
		}
	}
}

func TestFixedLengthFacet(t *testing.T) {
	schema := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
		<xsd:simpleType name="Code3"><xsd:restriction base="xsd:string">
			<xsd:length value="3"/>
		</xsd:restriction></xsd:simpleType>
		<xsd:element name="e"><xsd:complexType><xsd:attribute name="c" type="Code3" use="required"/></xsd:complexType></xsd:element>
	</xsd:schema>`
	s, err := ParseSchemaString(schema)
	if err != nil {
		t.Fatal(err)
	}
	if errs := s.ValidateString(`<e c="abc"/>`, ValidateOptions{}); len(errs) != 0 {
		t.Errorf("length 3 rejected: %v", errs)
	}
	for _, bad := range []string{"ab", "abcd", ""} {
		if errs := s.ValidateString(`<e c="`+bad+`"/>`, ValidateOptions{}); len(errs) == 0 {
			t.Errorf("%q accepted", bad)
		}
	}
	// Rune counting, not bytes.
	if errs := s.ValidateString(`<e c="äöü"/>`, ValidateOptions{}); len(errs) != 0 {
		t.Errorf("multibyte length: %v", errs)
	}
}

func TestProhibitedAttribute(t *testing.T) {
	schema := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
		<xsd:element name="e"><xsd:complexType>
			<xsd:attribute name="legacy" type="xsd:string" use="prohibited"/>
		</xsd:complexType></xsd:element></xsd:schema>`
	s, err := ParseSchemaString(schema)
	if err != nil {
		t.Fatal(err)
	}
	if errs := s.ValidateString(`<e/>`, ValidateOptions{}); len(errs) != 0 {
		t.Errorf("absence rejected: %v", errs)
	}
	if errs := s.ValidateString(`<e legacy="x"/>`, ValidateOptions{}); len(errs) == 0 {
		t.Error("prohibited attribute accepted")
	}
}

func TestMixedContent(t *testing.T) {
	schema := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
		<xsd:element name="p"><xsd:complexType mixed="true"><xsd:sequence>
			<xsd:element name="b" minOccurs="0" maxOccurs="unbounded"/>
		</xsd:sequence></xsd:complexType></xsd:element></xsd:schema>`
	s, err := ParseSchemaString(schema)
	if err != nil {
		t.Fatal(err)
	}
	if errs := s.ValidateString(`<p>text <b/> more</p>`, ValidateOptions{}); len(errs) != 0 {
		t.Errorf("mixed content rejected: %v", errs)
	}
	// Without mixed, text is rejected (covered elsewhere, asserted here
	// for the symmetric schema).
	schema2 := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
		<xsd:element name="p"><xsd:complexType><xsd:sequence>
			<xsd:element name="b" minOccurs="0"/>
		</xsd:sequence></xsd:complexType></xsd:element></xsd:schema>`
	s2, _ := ParseSchemaString(schema2)
	if errs := s2.ValidateString(`<p>text<b/></p>`, ValidateOptions{}); len(errs) == 0 {
		t.Error("character content accepted in element-only model")
	}
}

func TestXMLNamespaceAttributesPass(t *testing.T) {
	schema := sch(`<xsd:element name="e"><xsd:complexType/></xsd:element>`)
	s, err := ParseSchemaString(schema)
	if err != nil {
		t.Fatal(err)
	}
	// xmlns declarations and xml:* attributes are infrastructure, not
	// schema-declared attributes.
	if errs := s.ValidateString(`<e xmlns:foo="urn:x" xml:lang="en"/>`, ValidateOptions{}); len(errs) != 0 {
		t.Errorf("infrastructure attributes rejected: %v", errs)
	}
}

// collapsed must agree with the general collapse on every input: a value
// it accepts is returned unchanged by strings.Fields + Join.
func TestCollapsedMatchesFields(t *testing.T) {
	for _, v := range []string{
		"", "a", "a b", " a", "a ", "a  b", "a\tb", "a\nb", "a\rb", "a\vb",
		"a\fb", "a\u00a0b", "a\u2003b", "\u0085", "café", "x1 y2 z3", "  ",
	} {
		want := strings.Join(strings.Fields(v), " ")
		if collapsed(v) && v != want {
			t.Errorf("collapsed(%q) = true, but collapsing gives %q", v, want)
		}
		if got := builtinType("token").normalize(v); got != want {
			t.Errorf("normalize(%q) = %q, want %q", v, got, want)
		}
	}
}

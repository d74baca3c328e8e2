package xsd

import (
	"runtime"
	"slices"
	"testing"
	"weak"

	"goldweb/internal/xmldom"
)

// TestAttrFieldMatchesXPath: reading a bare "@name" field straight from
// the attribute list yields the tuples the XPath VM computes, for
// elements with and without the attribute, a namespaced attribute of the
// same local name, a namespace declaration named like it, and selected
// nodes that are not elements — on frozen and unfrozen trees.
func TestAttrFieldMatchesXPath(t *testing.T) {
	s := MustParseSchemaString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="registry">
    <xsd:complexType><xsd:sequence><xsd:any processContents="skip" minOccurs="0" maxOccurs="unbounded"/></xsd:sequence></xsd:complexType>
    <xsd:unique name="byID">
      <xsd:selector xpath="item | item/@id | item/text()"/>
      <xsd:field xpath="@id"/>
    </xsd:unique>
    <xsd:unique name="byPair">
      <xsd:selector xpath="item"/>
      <xsd:field xpath=" @id "/>
      <xsd:field xpath="@code"/>
    </xsd:unique>
  </xsd:element>
</xsd:schema>`)
	const src = `<registry xmlns:p="urn:p">
  <item id="a" code="1"/>
  <item p:id="b" code="2"/>
  <item xmlns:id="urn:x" id="" code="3"/>
  <item>text</item>
  <item id="a" code="1"/>
</registry>`
	for _, frozen := range []bool{false, true} {
		doc, err := xmldom.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		if frozen {
			xmldom.Freeze(doc)
		}
		reg := doc.DocumentElement()
		for _, ic := range s.Elements["registry"].Constraints {
			if !slices.ContainsFunc(ic.fieldAttrs, func(a string) bool { return a != "" }) {
				t.Fatalf("%s: no field takes the attribute path", ic.Name)
			}
			viaVM := *ic
			viaVM.fieldAttrs = make([]string, len(ic.Fields))
			got, gotNodes := ic.collect(reg, nil, &validator{})
			want, wantNodes := viaVM.collect(reg, nil, &validator{})
			if !slices.Equal(got, want) || !slices.Equal(gotNodes, wantNodes) {
				t.Errorf("frozen=%v %s: attribute path %q, XPath %q", frozen, ic.Name, got, want)
			}
		}
	}
}

// TestValidatorDropsTheDocument: once ValidateAndFreeze returns and the
// caller drops its result, the pooled validator holds no reference into
// the validated document, identity errors included.
func TestValidatorDropsTheDocument(t *testing.T) {
	s := MustParseSchemaString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r">
    <xsd:complexType><xsd:sequence>
      <xsd:element name="item" maxOccurs="unbounded">
        <xsd:complexType><xsd:attribute name="id" type="xsd:string"/></xsd:complexType>
      </xsd:element>
    </xsd:sequence></xsd:complexType>
    <xsd:key name="itemKey"><xsd:selector xpath="item"/><xsd:field xpath="@id"/></xsd:key>
    <xsd:keyref name="itemRef" refer="itemKey"><xsd:selector xpath="item"/><xsd:field xpath="@id"/></xsd:keyref>
  </xsd:element>
</xsd:schema>`)
	doc, err := xmldom.ParseString(`<r><item id="a"/><item id="a"/><item/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if errs := s.Validate(doc, ValidateOptions{}); len(errs) != 2 {
		t.Fatalf("%d errors, want a duplicate and a missing field: %v", len(errs), errs)
	}
	gone := weak.Make(doc.DocumentElement())
	doc = nil
	// One collection: a pooled validator survives it in the pool's victim
	// cache, so what it still references is still reachable.
	runtime.GC()
	if gone.Value() != nil {
		t.Error("the validated document is still reachable after validation")
	}
}

package xsd

import (
	"fmt"
	"strings"
	"testing"

	"goldweb/internal/xmldom"
)

// miniSchema is a scaled-down version of the paper's goldmodel schema
// exercising the same constructs: Russian-doll nesting, named simple
// types with enumerations, defaults, ID/IDREF, occurrence bounds, and
// key/keyref identity constraints.
const miniSchema = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Multiplicity">
    <xsd:restriction base="xsd:string">
      <xsd:enumeration value="0"/>
      <xsd:enumeration value="1"/>
      <xsd:enumeration value="M"/>
      <xsd:enumeration value="1..M"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:element name="goldmodel">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="factclasses">
          <xsd:complexType>
            <xsd:sequence>
              <xsd:element name="factclass" maxOccurs="unbounded">
                <xsd:complexType>
                  <xsd:sequence>
                    <xsd:element name="sharedagg" minOccurs="0" maxOccurs="unbounded">
                      <xsd:complexType>
                        <xsd:attribute name="dimclass" type="xsd:IDREF" use="required"/>
                        <xsd:attribute name="rolea" type="Multiplicity" default="M"/>
                        <xsd:attribute name="roleb" type="Multiplicity" default="1"/>
                      </xsd:complexType>
                    </xsd:element>
                  </xsd:sequence>
                  <xsd:attribute name="id" type="xsd:ID" use="required"/>
                  <xsd:attribute name="name" type="xsd:string" use="required"/>
                </xsd:complexType>
              </xsd:element>
            </xsd:sequence>
          </xsd:complexType>
        </xsd:element>
        <xsd:element name="dimclasses" minOccurs="0">
          <xsd:complexType>
            <xsd:sequence>
              <xsd:element name="dimclass" maxOccurs="unbounded">
                <xsd:complexType>
                  <xsd:attribute name="id" type="xsd:ID" use="required"/>
                  <xsd:attribute name="name" type="xsd:string" use="required"/>
                  <xsd:attribute name="istime" type="xsd:boolean" default="false"/>
                </xsd:complexType>
              </xsd:element>
            </xsd:sequence>
          </xsd:complexType>
        </xsd:element>
      </xsd:sequence>
      <xsd:attribute name="id" type="xsd:ID" use="required"/>
      <xsd:attribute name="name" type="xsd:string" use="required"/>
      <xsd:attribute name="creationdate" type="xsd:date"/>
    </xsd:complexType>
    <xsd:key name="dimClassKey">
      <xsd:selector xpath="dimclasses/dimclass"/>
      <xsd:field xpath="@id"/>
    </xsd:key>
    <xsd:keyref name="sharedAggDimClassKey" refer="dimClassKey">
      <xsd:selector xpath="factclasses/factclass/sharedagg"/>
      <xsd:field xpath="@dimclass"/>
    </xsd:keyref>
  </xsd:element>
</xsd:schema>`

const validDoc = `<goldmodel id="m1" name="Sales DW" creationdate="2002-03-24">
  <factclasses>
    <factclass id="f1" name="Sales">
      <sharedagg dimclass="d1"/>
      <sharedagg dimclass="d2" rolea="M" roleb="M"/>
    </factclass>
  </factclasses>
  <dimclasses>
    <dimclass id="d1" name="Time" istime="true"/>
    <dimclass id="d2" name="Product"/>
  </dimclasses>
</goldmodel>`

func mustSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := ParseSchemaString(miniSchema)
	if err != nil {
		t.Fatalf("parse schema: %v", err)
	}
	return s
}

func errsContain(errs []ValidationError, sub string) bool {
	for _, e := range errs {
		if strings.Contains(e.Error(), sub) {
			return true
		}
	}
	return false
}

func TestValidDocumentAccepted(t *testing.T) {
	s := mustSchema(t)
	errs := s.ValidateString(validDoc, ValidateOptions{})
	if len(errs) != 0 {
		t.Fatalf("expected valid, got: %v", errs)
	}
}

func TestMissingRequiredAttribute(t *testing.T) {
	s := mustSchema(t)
	doc := strings.Replace(validDoc, ` name="Sales DW"`, "", 1)
	errs := s.ValidateString(doc, ValidateOptions{})
	if !errsContain(errs, "missing required attribute name") {
		t.Errorf("got: %v", errs)
	}
}

func TestUndeclaredAttribute(t *testing.T) {
	s := mustSchema(t)
	doc := strings.Replace(validDoc, `id="f1"`, `id="f1" bogus="x"`, 1)
	errs := s.ValidateString(doc, ValidateOptions{})
	if !errsContain(errs, "attribute bogus is not declared") {
		t.Errorf("got: %v", errs)
	}
}

func TestEnumerationViolation(t *testing.T) {
	s := mustSchema(t)
	doc := strings.Replace(validDoc, `rolea="M"`, `rolea="many"`, 1)
	errs := s.ValidateString(doc, ValidateOptions{})
	if !errsContain(errs, "not one of the allowed values") {
		t.Errorf("got: %v", errs)
	}
}

func TestBooleanAndDateValidation(t *testing.T) {
	s := mustSchema(t)
	doc := strings.Replace(validDoc, `istime="true"`, `istime="maybe"`, 1)
	if errs := s.ValidateString(doc, ValidateOptions{}); !errsContain(errs, "not a valid boolean") {
		t.Errorf("boolean: %v", errs)
	}
	doc = strings.Replace(validDoc, `creationdate="2002-03-24"`, `creationdate="24/03/2002"`, 1)
	if errs := s.ValidateString(doc, ValidateOptions{}); !errsContain(errs, "not a valid date") {
		t.Errorf("date: %v", errs)
	}
}

func TestDuplicateID(t *testing.T) {
	s := mustSchema(t)
	doc := strings.Replace(validDoc, `id="d2"`, `id="d1"`, 1)
	errs := s.ValidateString(doc, ValidateOptions{})
	if !errsContain(errs, `duplicate ID "d1"`) {
		t.Errorf("got: %v", errs)
	}
}

func TestDanglingIDREF(t *testing.T) {
	s := mustSchema(t)
	doc := strings.Replace(validDoc, `dimclass="d2"`, `dimclass="d9"`, 1)
	errs := s.ValidateString(doc, ValidateOptions{})
	if !errsContain(errs, `IDREF "d9" does not match any ID`) {
		t.Errorf("got: %v", errs)
	}
}

// TestKeyrefCatchesWhatIDREFMisses reproduces the paper's §3.1 argument:
// DTD-style IDREF accepts a reference to *any* ID, while the keyref pins
// @dimclass to dimension-class IDs specifically.
func TestKeyrefCatchesWhatIDREFMisses(t *testing.T) {
	s := mustSchema(t)
	// Point a sharedagg at a fact class id: a valid IDREF, an invalid keyref.
	doc := strings.Replace(validDoc, `dimclass="d2"`, `dimclass="f1"`, 1)
	errs := s.ValidateString(doc, ValidateOptions{})
	if errsContain(errs, "IDREF") {
		t.Errorf("IDREF check should pass (f1 is an ID): %v", errs)
	}
	if !errsContain(errs, "keyref sharedAggDimClassKey") {
		t.Errorf("keyref should reject the fact-class reference: %v", errs)
	}
	// With identity constraints disabled (DTD ablation) the document passes.
	errs = s.ValidateString(doc, ValidateOptions{SkipIdentityConstraints: true})
	if len(errs) != 0 {
		t.Errorf("IDREF-only mode should accept: %v", errs)
	}
}

func TestKeyUniqueness(t *testing.T) {
	s := mustSchema(t)
	// Two dimclasses cannot share an id anyway (xsd:ID), so weaken via the
	// key path only: duplicate IDs already trip the ID check; assert the
	// key error also fires.
	doc := strings.Replace(validDoc, `id="d2"`, `id="d1"`, 1)
	errs := s.ValidateString(doc, ValidateOptions{})
	if !errsContain(errs, "key dimClassKey") {
		t.Errorf("key duplicate not reported: %v", errs)
	}
}

func TestUnexpectedElement(t *testing.T) {
	s := mustSchema(t)
	doc := strings.Replace(validDoc, `<factclasses>`, `<factclasses><intruder/>`, 1)
	errs := s.ValidateString(doc, ValidateOptions{})
	if !errsContain(errs, "<intruder> is not allowed") {
		t.Errorf("got: %v", errs)
	}
}

func TestMissingRequiredChild(t *testing.T) {
	s := mustSchema(t)
	doc := `<goldmodel id="m1" name="x"><dimclasses><dimclass id="d" name="D"/></dimclasses></goldmodel>`
	errs := s.ValidateString(doc, ValidateOptions{})
	if len(errs) == 0 {
		t.Fatal("missing factclasses accepted")
	}
	if !errsContain(errs, "not allowed here") && !errsContain(errs, "missing required content") {
		t.Errorf("got: %v", errs)
	}
	// An entirely empty model reports the missing-content case.
	errs = s.ValidateString(`<goldmodel id="m1" name="x"/>`, ValidateOptions{})
	if !errsContain(errs, "missing required content") {
		t.Errorf("empty model: %v", errs)
	}
}

func TestOptionalSectionOmitted(t *testing.T) {
	s := mustSchema(t)
	doc := `<goldmodel id="m1" name="x"><factclasses><factclass id="f" name="F"/></factclasses></goldmodel>`
	errs := s.ValidateString(doc, ValidateOptions{})
	if len(errs) != 0 {
		t.Errorf("dimclasses is optional: %v", errs)
	}
}

func TestWrongOrderRejected(t *testing.T) {
	s := mustSchema(t)
	doc := `<goldmodel id="m1" name="x">
	  <dimclasses><dimclass id="d" name="D"/></dimclasses>
	  <factclasses><factclass id="f" name="F"/></factclasses>
	</goldmodel>`
	errs := s.ValidateString(doc, ValidateOptions{})
	if len(errs) == 0 {
		t.Error("sequence order violation accepted")
	}
}

func TestCharacterContentRejected(t *testing.T) {
	s := mustSchema(t)
	doc := strings.Replace(validDoc, `<factclasses>`, `<factclasses>stray text`, 1)
	errs := s.ValidateString(doc, ValidateOptions{})
	if !errsContain(errs, "does not allow character content") {
		t.Errorf("got: %v", errs)
	}
}

func TestApplyDefaults(t *testing.T) {
	s := mustSchema(t)
	doc := `<goldmodel id="m1" name="x">
	  <factclasses><factclass id="f" name="F"><sharedagg dimclass="d"/></factclass></factclasses>
	  <dimclasses><dimclass id="d" name="D"/></dimclasses>
	</goldmodel>`
	parsed, _ := parseDoc(t, doc)
	errs := s.Validate(parsed, ValidateOptions{ApplyDefaults: true})
	if len(errs) != 0 {
		t.Fatalf("unexpected: %v", errs)
	}
	agg := parsed.DescendantElements("sharedagg")[0]
	if agg.AttrValue("rolea") != "M" || agg.AttrValue("roleb") != "1" {
		t.Errorf("defaults not applied: %v", agg.Attr)
	}
	dim := parsed.DescendantElements("dimclass")[0]
	if dim.AttrValue("istime") != "false" {
		t.Errorf("istime default not applied")
	}
	// Without the option the instance is untouched.
	parsed2, _ := parseDoc(t, doc)
	s.Validate(parsed2, ValidateOptions{})
	if parsed2.DescendantElements("sharedagg")[0].HasAttr("rolea") {
		t.Error("defaults applied without opt-in")
	}
}

func TestUnknownRootRejected(t *testing.T) {
	s := mustSchema(t)
	errs := s.ValidateString(`<unknown/>`, ValidateOptions{})
	if !errsContain(errs, "no global declaration") {
		t.Errorf("got: %v", errs)
	}
}

// TestEveryDuplicateIDReported: validation has no error cap, so each of
// nine repeated IDs is reported, every one naming the first definition.
func TestEveryDuplicateIDReported(t *testing.T) {
	s := mustSchema(t)
	doc := `<goldmodel id="m1" name="x"><factclasses>` +
		strings.Repeat(`<factclass id="z" name=""/>`, 10) +
		`</factclasses></goldmodel>`
	errs := s.ValidateString(doc, ValidateOptions{})
	if len(errs) != 9 {
		t.Fatalf("%d errors, want 9: %v", len(errs), errs)
	}
	for i, e := range errs {
		want := fmt.Sprintf(`/goldmodel/factclasses/factclass[%d]/@id (line 1): duplicate ID "z" (first defined at /goldmodel/factclasses/factclass[1]/@id)`, i+2)
		if e.Error() != want {
			t.Errorf("error %d = %q, want %q", i, e.Error(), want)
		}
	}
}

func parseDoc(t *testing.T, src string) (*xmldom.Node, error) {
	t.Helper()
	d, err := xmldom.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d, nil
}

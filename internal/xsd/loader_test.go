package xsd

import (
	"fmt"
	"strings"
	"testing"
)

// mapResolver serves schema documents from a map, the in-memory analogue
// of FileResolver for loader edge-case tests.
func mapResolver(docs map[string]string) Resolver {
	return func(location string) ([]byte, error) {
		src, ok := docs[location]
		if !ok {
			return nil, fmt.Errorf("no such document")
		}
		return []byte(src), nil
	}
}

func wrapSchema(body string) string {
	return `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">` + body + `</xsd:schema>`
}

func TestLoaderIncludeCycle(t *testing.T) {
	ld := Loader{Resolve: mapResolver(map[string]string{
		"a.xsd": wrapSchema(`<xsd:include schemaLocation="b.xsd"/><xsd:element name="a" type="xsd:string"/>`),
		"b.xsd": wrapSchema(`<xsd:include schemaLocation="a.xsd"/><xsd:element name="b" type="xsd:int"/>`),
	})}
	s, err := ld.Load("a.xsd")
	if err != nil {
		t.Fatalf("cycle should be benign: %v", err)
	}
	for _, name := range []string{"a", "b"} {
		if s.Elements[name] == nil {
			t.Errorf("element %q missing after cyclic load", name)
		}
	}
}

func TestLoaderMissingLocation(t *testing.T) {
	ld := Loader{Resolve: mapResolver(map[string]string{
		"a.xsd": wrapSchema(`<xsd:include schemaLocation="gone.xsd"/>`),
	})}
	_, err := ld.Load("a.xsd")
	if err == nil {
		t.Fatal("missing include target accepted")
	}
	se, ok := err.(*SchemaError)
	if !ok {
		t.Fatalf("err = %T, want *SchemaError", err)
	}
	if se.File != "a.xsd" {
		t.Errorf("SchemaError.File = %q, want the referencing file a.xsd", se.File)
	}
	for _, want := range []string{"gone.xsd", "referenced from a.xsd"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q misses %q", err, want)
		}
	}
}

func TestLoaderMissingRoot(t *testing.T) {
	ld := Loader{Resolve: mapResolver(nil)}
	_, err := ld.Load("root.xsd")
	if err == nil {
		t.Fatal("missing root document accepted")
	}
	if se, ok := err.(*SchemaError); !ok || se.File != "" {
		t.Errorf("root load failure should have no referencing file, got %#v", err)
	}
}

func TestLoaderConflictingRedefinition(t *testing.T) {
	ld := Loader{Resolve: mapResolver(map[string]string{
		"a.xsd": wrapSchema(`<xsd:include schemaLocation="b.xsd"/><xsd:element name="e" type="xsd:string"/>`),
		"b.xsd": wrapSchema(`<xsd:element name="e" type="xsd:int"/>`),
	})}
	_, err := ld.Load("a.xsd")
	if err == nil {
		t.Fatal("conflicting redefinition across files accepted")
	}
	for _, want := range []string{"duplicate global element e", "already declared in"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q misses %q", err, want)
		}
	}
}

func TestLoaderNestedRelativeIncludes(t *testing.T) {
	// c.xsd is referenced as "c.xsd" from within sub/, so it must resolve
	// to sub/c.xsd, and "../top.xsd" must climb back out.
	ld := Loader{Resolve: mapResolver(map[string]string{
		"root.xsd":    wrapSchema(`<xsd:include schemaLocation="sub/mid.xsd"/><xsd:element name="root" type="T"/>`),
		"sub/mid.xsd": wrapSchema(`<xsd:include schemaLocation="c.xsd"/><xsd:include schemaLocation="../top.xsd"/>`),
		"sub/c.xsd":   wrapSchema(`<xsd:simpleType name="T"><xsd:restriction base="Base"/></xsd:simpleType>`),
		"top.xsd":     wrapSchema(`<xsd:simpleType name="Base"><xsd:restriction base="xsd:string"/></xsd:simpleType>`),
	})}
	s, err := ld.Load("root.xsd")
	if err != nil {
		t.Fatalf("nested relative includes: %v", err)
	}
	if got := s.fileOf(s.SimpleTypes["T"].src); got != "sub/c.xsd" {
		t.Errorf("file of T = %q, want sub/c.xsd", got)
	}
	if got := s.fileOf(s.SimpleTypes["Base"].src); got != "top.xsd" {
		t.Errorf("file of Base = %q, want top.xsd", got)
	}
	files := s.SourceFiles()
	if len(files) != 4 {
		t.Errorf("SourceFiles = %v, want 4 entries", files)
	}
}

func TestLoaderSharedIncludeLoadedOnce(t *testing.T) {
	resolved := map[string]int{}
	inner := mapResolver(map[string]string{
		"a.xsd":      wrapSchema(`<xsd:include schemaLocation="shared.xsd"/><xsd:include schemaLocation="b.xsd"/>`),
		"b.xsd":      wrapSchema(`<xsd:include schemaLocation="./shared.xsd"/>`),
		"shared.xsd": wrapSchema(`<xsd:element name="s" type="xsd:string"/>`),
	})
	ld := Loader{Resolve: func(loc string) ([]byte, error) {
		resolved[loc]++
		return inner(loc)
	}}
	if _, err := ld.Load("a.xsd"); err != nil {
		t.Fatal(err)
	}
	if resolved["shared.xsd"] != 1 {
		t.Errorf("shared.xsd resolved %d times (want 1, the './' spelling normalized away)", resolved["shared.xsd"])
	}
}

func TestLoaderIncludeWithoutLocation(t *testing.T) {
	ld := Loader{Resolve: mapResolver(map[string]string{
		"a.xsd": wrapSchema(`<xsd:include/>`),
	})}
	_, err := ld.Load("a.xsd")
	if err == nil || !strings.Contains(err.Error(), "include requires a schemaLocation") {
		t.Errorf("locationless include: %v", err)
	}
	// An import without a location only declares intent; it must load.
	ld = Loader{Resolve: mapResolver(map[string]string{
		"a.xsd": wrapSchema(`<xsd:import namespace="urn:x"/><xsd:element name="e" type="xsd:string"/>`),
	})}
	if _, err := ld.Load("a.xsd"); err != nil {
		t.Errorf("locationless import should be a no-op: %v", err)
	}
}

func TestLoaderParseErrorProvenance(t *testing.T) {
	ld := Loader{Resolve: mapResolver(map[string]string{
		"a.xsd": wrapSchema(`<xsd:include schemaLocation="broken.xsd"/>`),
		"broken.xsd": `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="e" type="NoSuchType"/>
</xsd:schema>`,
	})}
	_, err := ld.Load("a.xsd")
	if err == nil {
		t.Fatal("unresolvable type accepted")
	}
	if !strings.Contains(err.Error(), "broken.xsd") {
		t.Errorf("error %q does not name the offending file broken.xsd", err)
	}
}

func TestParseSchemaIgnoresIncludes(t *testing.T) {
	// The single-document entry points must keep ignoring import/include
	// so the embedded GOLD schema path is unchanged.
	s, err := ParseSchemaString(wrapSchema(
		`<xsd:include schemaLocation="nowhere.xsd"/><xsd:element name="e" type="xsd:string"/>`))
	if err != nil {
		t.Fatalf("single-document parse should ignore includes: %v", err)
	}
	if s.Elements["e"] == nil {
		t.Error("element e missing")
	}
}

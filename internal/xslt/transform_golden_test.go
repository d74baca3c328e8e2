package xslt_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
	"goldweb/internal/xslt"
)

// The transform goldens freeze the output of the tree-walking engine the
// bytecode VM replaced, captured before that engine was deleted: every
// diffSheets stylesheet (plus the edge sheets below) × every example
// model, frozen up front and left for the run to freeze, and a fixed set
// of generated stylesheet/document pairs. Each output document is
// recorded as its length and SHA-256; messages and error text are
// verbatim.

const (
	transformsGolden = "testdata/transforms.golden"
	fuzzGolden       = "testdata/fuzz.golden"
)

// edgeSheets cover behavior only visible through errors or caller
// parameters: undeclared caller parameters become visible after the
// globals are evaluated, and missing or circular attribute sets fail at
// run time.
var edgeSheets = map[string]string{
	"undeclared-param": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/"><r b="{$base}"/></xsl:template>
</xsl:stylesheet>`,
	"global-sees-undeclared-param": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:variable name="g"><xsl:value-of select="$base"/></xsl:variable>
<xsl:template match="/"><r g="{$g}"/></xsl:template>
</xsl:stylesheet>`,
	"missing-attribute-set": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:attribute-set name="ok" use-attribute-sets="ghost"><xsl:attribute name="a">1</xsl:attribute></xsl:attribute-set>
<xsl:template match="/"><r xsl:use-attribute-sets="ok"/></xsl:template>
</xsl:stylesheet>`,
	"circular-attribute-set": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:attribute-set name="a" use-attribute-sets="b"><xsl:attribute name="x">1</xsl:attribute></xsl:attribute-set>
<xsl:attribute-set name="b" use-attribute-sets="a"/>
<xsl:template match="/"><r><xsl:copy-of select="/*/@*"/><xsl:element name="e" use-attribute-sets="b"/></r></xsl:template>
</xsl:stylesheet>`,
	"terminate-in-param-default": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/"><r><xsl:call-template name="t"/></r></xsl:template>
<xsl:template name="t"><xsl:param name="p"><xsl:message terminate="yes">no <xsl:value-of select="name(/*)"/></xsl:message></xsl:param><xsl:value-of select="$p"/></xsl:template>
</xsl:stylesheet>`,
}

// goldenSheets is diffSheets plus the edge sheets.
func goldenSheets(t *testing.T) map[string]*xslt.Stylesheet {
	t.Helper()
	out := diffSheets(t)
	for name, src := range edgeSheets {
		s, err := xslt.CompileStylesheetString(src, xslt.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = s
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// outcome is one transformation's observable result: its output
// documents in order (the principal document under the empty href),
// its messages, or its error.
type outcome struct {
	hrefs    []string
	docs     map[string][]byte
	messages []string
	err      error
}

func bufferOutcome(r *xslt.BufferResult, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{hrefs: append([]string{""}, r.DocumentOrder...), docs: map[string][]byte{"": r.Main}, messages: r.Messages}
	for href, b := range r.Documents {
		o.docs[href] = b
	}
	return o
}

// write renders the outcome in the golden format.
func (o outcome) write(b *strings.Builder) {
	if o.err != nil {
		fmt.Fprintf(b, "  error %q\n", o.err.Error())
		return
	}
	for _, href := range o.hrefs {
		name := href
		if name == "" {
			name = "(main)"
		}
		doc := o.docs[href]
		fmt.Fprintf(b, "  doc %s %d %x\n", name, len(doc), sha256.Sum256(doc))
	}
	for _, m := range o.messages {
		fmt.Fprintf(b, "  message %q\n", m)
	}
}

// renderTransforms runs every golden sheet over every example model with
// run and renders the golden listing.
func renderTransforms(t *testing.T, run func(*xslt.Stylesheet, *xmldom.Node) outcome) string {
	t.Helper()
	sheets := goldenSheets(t)
	docs := diffDocs(t)
	var b strings.Builder
	for _, sheetName := range sortedKeys(sheets) {
		for _, docName := range sortedKeys(docs) {
			fmt.Fprintf(&b, "%s × %s\n", sheetName, docName)
			run(sheets[sheetName], docs[docName]).write(&b)
		}
	}
	return b.String()
}

var goldenParams = map[string]xpath.Value{"base": xpath.String("page")}

// fuzzGoldenSeeds are the generator seed pairs fuzz.golden pins.
func fuzzGoldenSeeds() [][2]int64 {
	seeds := make([][2]int64, 256)
	for i := range seeds {
		seeds[i] = [2]int64{int64(i), int64(i)*31 + 7}
	}
	return seeds
}

// renderFuzz renders the fuzz.golden listing with transform.
func renderFuzz(t *testing.T, transform func(*xslt.Stylesheet, *xmldom.Node) outcome) string {
	t.Helper()
	var b strings.Builder
	for _, sp := range fuzzGoldenSeeds() {
		src := genStylesheet(rand.New(rand.NewSource(sp[0])), false)
		sheet, err := xslt.CompileStylesheetString(src, xslt.CompileOptions{})
		if err != nil {
			t.Fatalf("seed %d: generated stylesheet does not compile: %v\n%s", sp[0], err, src)
		}
		fmt.Fprintf(&b, "seed %d/%d\n", sp[0], sp[1])
		transform(sheet, genDoc(rand.New(rand.NewSource(sp[1])))).write(&b)
	}
	return b.String()
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: first difference at line %d\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}

// TestTransformFuzzGolden pins the outputs of the generated
// stylesheet/document pairs in fuzz.golden.
func TestTransformFuzzGolden(t *testing.T) {
	checkGolden(t, fuzzGolden, renderFuzz(t, func(s *xslt.Stylesheet, doc *xmldom.Node) outcome {
		return bufferOutcome(s.TransformToBuffers(doc, nil))
	}))
}

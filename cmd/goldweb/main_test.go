package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"goldweb/internal/analysis/verify"
	"goldweb/internal/catalog"
	"goldweb/internal/core"
	"goldweb/internal/server"
	"goldweb/internal/xslt"
)

// withFile writes content into a temp file and returns its path.
func withFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// withSheet writes a stylesheet fixture as s.xsl, as withFile does,
// after checking that the static verifier finds no error in its
// compiled program: the programs cmdTransform runs are verifier cases
// too.
func withSheet(t *testing.T, src string) string {
	t.Helper()
	s, err := xslt.CompileStylesheetString(src, xslt.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range verify.Program(s.Program()) {
		if !f.Warning {
			t.Errorf("program verifier: %s", f)
		}
	}
	return withFile(t, "s.xsl", src)
}

// capture redirects stdout while fn runs and returns what was printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	return redirect(t, &os.Stdout, fn)
}

// redirect points *f at a pipe while fn runs and returns what was
// written to it.
func redirect(t *testing.T, f **os.File, fn func() error) (string, error) {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	ferr := fn()
	w.Close()
	*f = old
	buf, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf), ferr
}

func TestUsageListsEveryCommand(t *testing.T) {
	out, _ := redirect(t, &os.Stderr, func() error { usage(); return nil })
	// The command list is the paragraph after the title; notes follow it.
	paras := strings.Split(out, "\n\n")
	if len(paras) < 2 {
		t.Fatalf("usage has no command list:\n%s", out)
	}
	list := paras[1]
	for _, cmd := range []string{
		"sample", "validate", "pretty", "publish", "serve", "export", "schema",
		"schema-tree", "check-schema", "cwm", "report", "transform", "lint",
	} {
		if !regexp.MustCompile(`(?m)^  goldweb ` + regexp.QuoteMeta(cmd) + `(\s|$)`).MatchString(list) {
			t.Errorf("usage does not list %q in the command list:\n%s", cmd, out)
		}
	}
	if strings.Contains(out, "goldweb bench") {
		t.Errorf("usage still lists the retired bench command:\n%s", out)
	}
}

func TestCmdValidateAcceptsSample(t *testing.T) {
	path := withFile(t, "m.xml", core.SampleSales().XMLString())
	out, err := capture(t, func() error { return cmdValidate([]string{path}) })
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.Contains(out, "VALID: Sales DW") {
		t.Errorf("out: %s", out)
	}
}

func TestCmdValidateRejectsBroken(t *testing.T) {
	bad := strings.Replace(core.SampleSales().XMLString(), `dimclass="d1"`, `dimclass="zz"`, 1)
	path := withFile(t, "bad.xml", bad)
	out, err := capture(t, func() error { return cmdValidate([]string{path}) })
	if err == nil {
		t.Fatal("broken model accepted")
	}
	if !strings.Contains(out, "zz") {
		t.Errorf("culprit missing: %s", out)
	}
}

func TestCmdValidateUsageAndMissingFile(t *testing.T) {
	if err := cmdValidate(nil); err == nil {
		t.Error("no-arg should fail")
	}
	if err := cmdValidate([]string{"/nonexistent/x.xml"}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestCmdPublishWritesSite(t *testing.T) {
	model := withFile(t, "m.xml", core.SampleSales().XMLString())
	out := filepath.Join(t.TempDir(), "site")
	if _, err := capture(t, func() error {
		return cmdPublish([]string{"-o", out, model})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Sales DW") {
		t.Error("index incomplete")
	}
	// Single mode produces just the index (plus css).
	out2 := filepath.Join(t.TempDir(), "single")
	if _, err := capture(t, func() error {
		return cmdPublish([]string{"-o", out2, "-mode", "single", model})
	}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(out2)
	htmlCount := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".html") {
			htmlCount++
		}
	}
	if htmlCount != 1 {
		t.Errorf("single mode wrote %d html files", htmlCount)
	}
	// Bad mode errors.
	if _, err := capture(t, func() error {
		return cmdPublish([]string{"-mode", "triple", model})
	}); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestCmdPublishFocus(t *testing.T) {
	m := core.SampleHospital()
	model := withFile(t, "h.xml", m.XMLString())
	out := filepath.Join(t.TempDir(), "site")
	if _, err := capture(t, func() error {
		return cmdPublish([]string{"-o", out, "-focus", m.Facts[1].ID, model})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, m.Facts[0].ID+".html")); err == nil {
		t.Error("focused publish included the other fact class")
	}
}

func TestCmdExportStyles(t *testing.T) {
	model := withFile(t, "m.xml", core.SampleSales().XMLString())
	out, err := capture(t, func() error { return cmdExport([]string{model}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CREATE TABLE fact_sales (") {
		t.Errorf("star ddl: %.120s", out)
	}
	out, err = capture(t, func() error { return cmdExport([]string{"-style", "snowflake", model}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dim_time_month") {
		t.Errorf("snowflake ddl: %.120s", out)
	}
	if _, err := capture(t, func() error { return cmdExport([]string{"-style", "hexagon", model}) }); err == nil {
		t.Error("bad style accepted")
	}
}

func TestCmdSchemaTree(t *testing.T) {
	out, err := capture(t, func() error { return cmdSchemaTree(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "goldmodel\n") {
		t.Errorf("tree: %.80s", out)
	}
	out, err = capture(t, func() error { return cmdSchemaTree([]string{"-attrs"}) })
	if err != nil || !strings.Contains(out, "@id : xsd:ID (required)") {
		t.Errorf("attrs tree: %v %.80s", err, out)
	}
}

func TestCmdCheckSchema(t *testing.T) {
	good := withFile(t, "s.xsd", `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
		<xsd:element name="e" type="xsd:string"/></xsd:schema>`)
	out, err := capture(t, func() error { return cmdCheckSchema([]string{good}) })
	if err != nil || !strings.Contains(out, "clean") {
		t.Errorf("good schema: %v %s", err, out)
	}
	bad := withFile(t, "b.xsd", `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
		<xsd:element name="e" type="Nope"/></xsd:schema>`)
	out, err = capture(t, func() error { return cmdCheckSchema([]string{bad}) })
	if err == nil {
		t.Error("bad schema passed")
	}
	if !strings.Contains(out, "Nope") {
		t.Errorf("culprit missing: %s", out)
	}
}

func TestCmdTransform(t *testing.T) {
	doc := withFile(t, "d.xml", `<r><v>7</v></r>`)
	sheet := withSheet(t, `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
		<xsl:output method="text"/>
		<xsl:param name="prefix" select="'value: '"/>
		<xsl:template match="/"><xsl:value-of select="$prefix"/><xsl:value-of select="//v"/></xsl:template>
	</xsl:stylesheet>`)
	out, err := capture(t, func() error { return cmdTransform([]string{doc, sheet}) })
	if err != nil {
		t.Fatal(err)
	}
	if out != "value: 7" {
		t.Errorf("transform out = %q", out)
	}
	out, err = capture(t, func() error {
		return cmdTransform([]string{"-param", "prefix=p:", doc, sheet})
	})
	if err != nil || out != "p:7" {
		t.Errorf("param transform = %q (%v)", out, err)
	}
	if _, err := capture(t, func() error {
		return cmdTransform([]string{"-param", "nonsense", doc, sheet})
	}); err == nil {
		t.Error("malformed -param accepted")
	}
}

func TestCmdTransformMultiOutput(t *testing.T) {
	doc := withFile(t, "d.xml", `<r><i n="a"/><i n="b"/></r>`)
	sheet := withSheet(t, `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.1">
		<xsl:template match="/"><main><xsl:for-each select="//i">
			<xsl:document href="{@n}.xml"><item><xsl:value-of select="@n"/></item></xsl:document>
		</xsl:for-each></main></xsl:template>
	</xsl:stylesheet>`)
	outDir := filepath.Join(t.TempDir(), "docs")
	if _, err := capture(t, func() error {
		return cmdTransform([]string{"-o", outDir, doc, sheet})
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.xml", "b.xml"} {
		data, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(data), "<item>") {
			t.Errorf("%s content: %s", name, data)
		}
	}
}

func TestCmdTransformRejectsEscapingHref(t *testing.T) {
	doc := withFile(t, "d.xml", `<r/>`)
	sheet := withSheet(t, `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.1">
		<xsl:template match="/"><main/><xsl:document href="../x.html"><escaped/></xsl:document></xsl:template>
	</xsl:stylesheet>`)
	base := t.TempDir()
	outDir := filepath.Join(base, "docs")
	_, err := capture(t, func() error {
		return cmdTransform([]string{"-o", outDir, doc, sheet})
	})
	if err == nil || !strings.Contains(err.Error(), `"../x.html"`) {
		t.Fatalf("escaping href: err = %v, want an error naming the href", err)
	}
	if _, err := os.Stat(filepath.Join(base, "x.html")); err == nil {
		t.Error("transform wrote outside the output directory")
	}
}

func TestCmdTransformNestedHref(t *testing.T) {
	doc := withFile(t, "d.xml", `<r/>`)
	sheet := withSheet(t, `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.1">
		<xsl:output omit-xml-declaration="yes"/>
		<xsl:template match="/"><main/><xsl:document href="sub/a.html"><nested/></xsl:document></xsl:template>
	</xsl:stylesheet>`)
	outDir := filepath.Join(t.TempDir(), "docs")
	if _, err := capture(t, func() error {
		return cmdTransform([]string{"-o", outDir, doc, sheet})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(outDir, "sub", "a.html"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "<nested/>" {
		t.Errorf("sub/a.html = %q", data)
	}
}

// TestCmdTransformMatchesPublish checks that transforming an example
// model with the multi-page stylesheet (its standard output taken as
// index.html) writes the pages publish writes, byte for byte.
func TestCmdTransformMatchesPublish(t *testing.T) {
	models, err := filepath.Glob("../../examples/models/*.xml")
	if err != nil || len(models) == 0 {
		t.Fatalf("no example models: %v", err)
	}
	for _, model := range models {
		pubDir := filepath.Join(t.TempDir(), "publish")
		if _, err := capture(t, func() error {
			return cmdPublish([]string{"-o", pubDir, model})
		}); err != nil {
			t.Fatalf("%s: publish: %v", model, err)
		}
		xslDir := filepath.Join(t.TempDir(), "transform")
		index, err := capture(t, func() error {
			_, err := redirect(t, &os.Stderr, func() error {
				return cmdTransform([]string{"-o", xslDir, model, "../../internal/core/assets/multi.xsl"})
			})
			return err
		})
		if err != nil {
			t.Fatalf("%s: transform: %v", model, err)
		}
		if err := os.WriteFile(filepath.Join(xslDir, "index.html"), []byte(index), 0o644); err != nil {
			t.Fatal(err)
		}
		want := readTree(t, pubDir)
		delete(want, "style.css")
		got := readTree(t, xslDir)
		if len(got) != len(want) {
			t.Errorf("%s: transform wrote %d files, publish %d", model, len(got), len(want))
		}
		for name, data := range want {
			if got[name] != data {
				t.Errorf("%s: %s differs between transform and publish", model, name)
			}
		}
	}
}

// readTree returns the files under dir by slash-separated relative path.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[filepath.ToSlash(rel)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestCmdSampleAndPretty(t *testing.T) {
	out, err := capture(t, func() error { return cmdSample([]string{"hospital"}) })
	if err != nil || !strings.Contains(out, `name="Hospital DW"`) {
		t.Errorf("sample: %v", err)
	}
	if _, err := capture(t, func() error { return cmdSample([]string{"zoo"}) }); err == nil {
		t.Error("unknown sample accepted")
	}
	path := withFile(t, "m.xml", core.SampleSales().XMLString())
	out, err = capture(t, func() error { return cmdPretty([]string{path}) })
	if err != nil || !strings.Contains(out, "\n  <factclasses>") {
		t.Errorf("pretty: %v", err)
	}
}

func TestCmdReport(t *testing.T) {
	out, err := capture(t, func() error { return cmdReport(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Fig. 6", "link integrity", "Fig. 5", "focus=Treatments",
		"validation cost", "single-page", "multi-page",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestCmdCWM(t *testing.T) {
	out, err := capture(t, func() error { return cmdCWM(nil) })
	if err != nil || !strings.Contains(out, "<CWMOLAP:Schema") {
		t.Errorf("cwm default: %v", err)
	}
	path := withFile(t, "h.xml", core.SampleHospital().XMLString())
	out, err = capture(t, func() error { return cmdCWM([]string{path}) })
	if err != nil || !strings.Contains(out, `name="Hospital DW"`) {
		t.Errorf("cwm file: %v", err)
	}
}

func TestCmdValidateDTDMode(t *testing.T) {
	// The DTD (the paper's previous proposal) accepts a bad date the
	// schema rejects.
	bad := strings.Replace(core.SampleSales().XMLString(),
		`creationdate="2002-03-24"`, `creationdate="someday"`, 1)
	path := withFile(t, "bad.xml", bad)
	out, err := capture(t, func() error { return cmdValidate([]string{"-dtd", path}) })
	if err != nil {
		t.Fatalf("DTD mode should accept: %v (%s)", err, out)
	}
	if !strings.Contains(out, "VALID (DTD only") {
		t.Errorf("out: %s", out)
	}
	if err := cmdValidate([]string{path}); err == nil {
		t.Error("schema mode should reject the bad date")
	}
	// Structural breakage still fails under the DTD.
	broken := strings.Replace(core.SampleSales().XMLString(), `<factclasses>`, `<factclasses><rogue/>`, 1)
	path2 := withFile(t, "broken.xml", broken)
	if _, err := capture(t, func() error { return cmdValidate([]string{"-dtd", path2}) }); err == nil {
		t.Error("DTD mode should reject undeclared elements")
	}
}

func TestCmdLintBuiltinsClean(t *testing.T) {
	out, err := capture(t, func() error { return cmdLint(nil) })
	if err != nil {
		t.Fatalf("built-in corpus must lint clean: %v (%s)", err, out)
	}
	if !strings.Contains(out, "ok: no findings") {
		t.Errorf("out: %s", out)
	}
}

func TestCmdLintFlagsBrokenStylesheet(t *testing.T) {
	path := withFile(t, "bad.xsl", `<?xml version="1.0"?>
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:template match="widget"/>
</xsl:stylesheet>`)
	out, err := capture(t, func() error { return cmdLint([]string{path}) })
	if err == nil {
		t.Fatal("error-severity finding must make lint fail")
	}
	if !strings.Contains(out, "GW101") || !strings.Contains(out, "widget") {
		t.Errorf("out: %s", out)
	}
	// JSON mode emits a machine-readable array with positions.
	out, err = capture(t, func() error { return cmdLint([]string{"-json", path}) })
	if err == nil {
		t.Fatal("JSON mode must still fail on errors")
	}
	if !strings.Contains(out, `"code": "GW101"`) || !strings.Contains(out, `"line": 3`) {
		t.Errorf("json out: %s", out)
	}
}

func TestCmdLintVerifySummary(t *testing.T) {
	out, err := capture(t, func() error { return cmdLint([]string{"-verify"}) })
	if err != nil {
		t.Fatalf("lint -verify on builtins: %v (%s)", err, out)
	}
	for _, want := range []string{
		"verify: builtin:single.xsl:",
		"verify: builtin:multi.xsl:",
		"expressions verified — ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestCmdLintJSONDeterministic(t *testing.T) {
	// A stylesheet with findings across several codes and positions: the
	// JSON artifact must be byte-identical across runs.
	path := withFile(t, "noisy.xsl", `<?xml version="1.0"?>
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:output method="html"/>
  <xsl:template match="goldmodel">
    <xsl:variable name="dead" select="@name"/>
    <img src="x.png">caption</img>
    <div>text<xsl:attribute name="id">v</xsl:attribute></div>
  </xsl:template>
  <xsl:template name="unused"><x/></xsl:template>
</xsl:stylesheet>`)
	first, err := capture(t, func() error { return cmdLint([]string{"-json", path}) })
	if err != nil {
		t.Fatalf("warnings must not fail lint: %v (%s)", err, first)
	}
	for _, code := range []string{"GW203", "GW202", "GW502", "GW504"} {
		if !strings.Contains(first, `"code": "`+code+`"`) {
			t.Errorf("missing %s in json output:\n%s", code, first)
		}
	}
	for i := 0; i < 3; i++ {
		again, err := capture(t, func() error { return cmdLint([]string{"-json", path}) })
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("lint -json output is not deterministic:\n--- first ---\n%s\n--- again ---\n%s", first, again)
		}
	}
}

func TestCmdLintWalksDirectories(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "m.xml"), []byte(core.SampleSales().XMLString()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return cmdLint([]string{dir}) })
	if err != nil {
		t.Fatalf("clean dir: %v (%s)", err, out)
	}
	if err := cmdLint([]string{filepath.Join(dir, "missing")}); err == nil {
		t.Error("missing path should fail")
	}
}

// TestServeSingleRefusesInvalidModel: serve with a model file runs the
// catalog's pipeline, so a document whose key references are broken
// (GW402) never goes live: the validate stage refuses it with the
// findings, printed once (the event printer adds no second copy).
func TestServeSingleRefusesInvalidModel(t *testing.T) {
	const fixture = "../../internal/analysis/testdata/models/gw402_broken_refs.xml"
	out, err := capture(t, func() error {
		c, _, err := loadSingle(context.Background(), fixture, catalog.Options{OnEvent: newEventPrinter(os.Stdout)})
		if err == nil {
			c.Close()
		}
		return err
	})
	const want = "refusing to serve gw402_broken_refs: validate: 2 findings, first: "
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("err = %v, want one starting %q", err, want)
	}
	if strings.Contains(out, "findings") {
		t.Errorf("printed:\n%s\nwant the error printed once, as the returned error", out)
	}
}

// TestEventPrinterShortensRepeatedFailures: the serve event printer
// prints a model's stage failure in full the first time, and again only
// when it differs from that model's previous failure; a retry that fails
// the same way is one "failed again" line. A commit resets the record,
// and each model keeps its own.
func TestEventPrinterShortensRepeatedFailures(t *testing.T) {
	var out strings.Builder
	printEvent := newEventPrinter(&out)
	invalid := errors.New("document is invalid: keyref violated (2 problems)")
	fail := func(model, stage string, attempt int, err error) catalog.Event {
		return catalog.Event{Model: model, Type: catalog.EventStageFailed, Stage: stage, Attempt: attempt, Err: err}
	}
	for _, ev := range []catalog.Event{
		fail("a", "publish", 1, invalid),
		fail("a", "publish", 2, invalid),
		fail("b", "publish", 1, invalid),
		fail("a", "publish", 3, invalid),
		fail("a", "parse", 4, errors.New("unexpected EOF")),
		fail("a", "publish", 5, invalid),
		{Model: "a", Type: catalog.EventSwapCommitted, Gen: 1},
		fail("a", "publish", 1, invalid),
	} {
		printEvent(ev)
	}
	want := []string{
		"model a: stage publish failed (attempt 1): " + invalid.Error(),
		"model a: stage publish failed again (attempt 2)",
		"model b: stage publish failed (attempt 1): " + invalid.Error(),
		"model a: stage publish failed again (attempt 3)",
		"model a: stage parse failed (attempt 4): unexpected EOF",
		"model a: stage publish failed (attempt 5): " + invalid.Error(),
		"model a: generation 1 live",
		"model a: stage publish failed (attempt 1): " + invalid.Error(),
	}
	if got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); !reflect.DeepEqual(got, want) {
		t.Errorf("printed:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestServeReportsRefusedModelOnce: each serve mode prints a refused
// model's failure once. Single mode returns it as the error and prints
// no stage event; serve -catalog prints the stage event and then only
// what the model serves meanwhile, promising a retry only when retries
// are on.
func TestServeReportsRefusedModelOnce(t *testing.T) {
	const fixture = "../../internal/analysis/testdata/models/gw402_broken_refs.xml"
	const failure = "validate: 2 findings"
	t.Run("single", func(t *testing.T) {
		out, err := capture(t, func() error { return cmdServe([]string{fixture}) })
		if err == nil || !strings.Contains(err.Error(), failure) {
			t.Fatalf("serve: err = %v, want the %q failure", err, failure)
		}
		if strings.Contains(out, failure) {
			t.Errorf("serve printed the failure it returns:\n%s", out)
		}
	})

	src, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(withFile(t, "broken.xml", string(src)))
	for _, retry := range []bool{true, false} {
		t.Run("catalog retry="+strconv.FormatBool(retry), func(t *testing.T) {
			// The catalog itself never retries here: a background retry
			// would print while stdout is captured.
			out, _ := capture(t, func() error {
				c := catalog.New(catalog.Options{Loader: catalog.DirLoader(dir),
					DisableRetry: true, OnEvent: newEventPrinter(os.Stdout)})
				defer c.Close()
				addModels(context.Background(), c, []string{"broken"}, retry)
				return nil
			})
			if n := strings.Count(out, failure); n != 1 {
				t.Errorf("printed the failure %d times:\n%s", n, out)
			}
			if promised := strings.Contains(out, "until a retry succeeds"); promised != retry {
				t.Errorf("promises a retry %v:\n%s", promised, out)
			}
		})
	}

	// An interrupt during start-up ends the first loads: the server shuts
	// down at once, so nothing is promised to serve or retry.
	t.Run("catalog interrupted", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		out, _ := capture(t, func() error {
			c := catalog.New(catalog.Options{Loader: catalog.DirLoader(dir),
				DisableRetry: true, OnEvent: newEventPrinter(os.Stdout)})
			defer c.Close()
			addModels(ctx, c, []string{"broken", "broken"}, true)
			return nil
		})
		if strings.Contains(out, "serving 503") {
			t.Errorf("promised service after the interrupt:\n%s", out)
		}
	})
}

// TestServeSingleMatchesCatalogSite: serve with a model file publishes
// each example model's index page byte for byte as serve -catalog does
// under /m/{name}/.
func TestServeSingleMatchesCatalogSite(t *testing.T) {
	const dir = "../../examples/models"
	names, err := catalog.DirModels(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no example models: %v", err)
	}
	multi := catalog.New(catalog.Options{Loader: catalog.DirLoader(dir), DisableRetry: true})
	defer multi.Close()
	for _, name := range names {
		if err := multi.Add(context.Background(), name); err != nil {
			t.Fatalf("catalog %s: %v", name, err)
		}
		c, got, err := loadSingle(context.Background(), filepath.Join(dir, name+".xml"), catalog.Options{})
		if err != nil {
			t.Fatalf("serve %s: %v", name, err)
		}
		single := httptest.NewRecorder()
		c.Server(got).Handler().ServeHTTP(single, httptest.NewRequest("GET", "/site/index.html", nil))
		c.Close()
		want := httptest.NewRecorder()
		multi.Handler().ServeHTTP(want, httptest.NewRequest("GET", "/m/"+name+"/site/index.html", nil))
		if single.Code != 200 || want.Code != 200 || single.Body.String() != want.Body.String() {
			t.Errorf("%s: serve answered %d, serve -catalog %d; bodies equal %v", name, single.Code, want.Code,
				single.Body.String() == want.Body.String())
		}
	}
}

// TestModelCommandsShareServesVerdict: every command that reads a model
// file refuses a document single-model serve refuses. publish, export
// and cwm return exactly the validate-stage error that serve reports
// after "refusing to serve NAME: "; validate reports the document's
// problems in full.
func TestModelCommandsShareServesVerdict(t *testing.T) {
	const fixtures = "../../internal/analysis/testdata/models/"
	sales := core.SampleSales().XMLString()
	badDate := regexp.MustCompile(`creationdate="[^"]*"`).ReplaceAllString(sales, `creationdate="2002-13-45"`)
	if badDate == sales {
		t.Fatal("the sales sample has no creationdate")
	}
	rogue := strings.Replace(sales, "<factclasses>", "<factclasses><rogue/>", 1)
	if rogue == sales {
		t.Fatal("the sales sample has no <factclasses>")
	}
	for _, path := range []string{
		fixtures + "gw401_invalid_model.xml",
		fixtures + "gw401_unmatched_scope.xml",
		fixtures + "gw402_broken_refs.xml",
		withFile(t, "bad_date.xml", badDate),
		withFile(t, "rogue.xml", rogue),
	} {
		name := modelName(path)
		t.Run(name, func(t *testing.T) {
			_, serr := capture(t, func() error {
				c, _, err := loadSingle(context.Background(), path, catalog.Options{OnEvent: newEventPrinter(os.Stdout)})
				if err == nil {
					c.Close()
				}
				return err
			})
			prefix := "refusing to serve " + name + ": "
			if serr == nil || !strings.HasPrefix(serr.Error(), prefix+"validate: ") {
				t.Fatalf("serve: err = %v, want a validate-stage refusal", serr)
			}
			want := strings.TrimPrefix(serr.Error(), prefix)
			if _, err := capture(t, func() error { return cmdValidate([]string{path}) }); err == nil {
				t.Error("validate accepted the document")
			}
			for cmd, run := range map[string]func([]string) error{
				"publish": cmdPublish, "export": cmdExport, "cwm": cmdCWM,
			} {
				args := []string{path}
				if cmd == "publish" {
					args = []string{"-o", t.TempDir(), path}
				}
				out, err := capture(t, func() error { return run(args) })
				if err == nil || err.Error() != want {
					t.Errorf("%s: err = %v, want %q", cmd, err, want)
				}
				if out != "" {
					t.Errorf("%s printed %q for a refused model", cmd, out)
				}
			}
		})
	}
}

// TestCmdPublishMatchesServe: publish writes, page for page, the bytes
// single-model serve answers for each example model: every page of the
// unfocused multi-page site and the single page.
func TestCmdPublishMatchesServe(t *testing.T) {
	paths, err := filepath.Glob("../../examples/models/*.xml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example models: %v", err)
	}
	for _, path := range paths {
		c, name, err := loadSingle(context.Background(), path, catalog.Options{})
		if err != nil {
			t.Fatalf("serve %s: %v", path, err)
		}
		get := func(target string) string {
			rec := httptest.NewRecorder()
			c.Server(name).Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
			if rec.Code != 200 {
				t.Errorf("%s: GET %s answered %d", name, target, rec.Code)
			}
			return rec.Body.String()
		}
		multi, single := t.TempDir(), t.TempDir()
		for _, args := range [][]string{{"-o", multi, path}, {"-o", single, "-mode", "single", path}} {
			if _, err := capture(t, func() error { return cmdPublish(args) }); err != nil {
				t.Fatalf("publish %s: %v", name, err)
			}
		}
		pages := readTree(t, multi)
		if len(pages) < 2 {
			t.Errorf("%s: publish wrote %d pages", name, len(pages))
		}
		for page, content := range pages {
			if get("/site/"+page) != content {
				t.Errorf("%s: /site/%s differs from the published page", name, page)
			}
		}
		if get("/single") != readTree(t, single)["index.html"] {
			t.Errorf("%s: /single differs from the published single page", name)
		}
		c.Close()
	}
}

// TestCmdPublishRefusesUnknownFocus: publish refuses a -focus naming no
// fact class with the text of serve's 404 for that focus, and writes
// nothing.
func TestCmdPublishRefusesUnknownFocus(t *testing.T) {
	c, name, err := loadSingle(context.Background(), "", catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := httptest.NewRecorder()
	c.Server(name).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/single?focus=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("serve answered %d for an unknown focus", rec.Code)
	}
	model := withFile(t, "m.xml", core.SampleSales().XMLString())
	out := filepath.Join(t.TempDir(), "site")
	_, err = capture(t, func() error { return cmdPublish([]string{"-o", out, "-focus", "nope", model}) })
	if err == nil || err.Error()+"\n" != rec.Body.String() {
		t.Errorf("publish: err = %v, want serve's %q", err, rec.Body.String())
	}
	if _, serr := os.Stat(out); !os.IsNotExist(serr) {
		t.Errorf("publish wrote %s for an unknown focus", out)
	}
}

func TestCmdServeCatalogArgValidation(t *testing.T) {
	dir := t.TempDir()
	// -catalog plus a positional model file is a contradiction.
	_, err := capture(t, func() error {
		return cmdServe([]string{"-catalog", dir, "model.xml"})
	})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("want mutually-exclusive error, got %v", err)
	}
	// An empty catalog directory refuses to start.
	_, err = capture(t, func() error {
		return cmdServe([]string{"-catalog", dir})
	})
	if err == nil || !strings.Contains(err.Error(), "no *.xml models") {
		t.Errorf("want empty-dir error, got %v", err)
	}
	// -lint is no serve flag: it is rejected before any model loads.
	if err := os.WriteFile(filepath.Join(dir, "m.xml"), []byte(core.SampleSales().XMLString()), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = redirect(t, &os.Stderr, func() error {
		return cmdServe([]string{"-catalog", dir, "-lint", "strict"})
	})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -lint") {
		t.Errorf("want an unknown-flag error for -lint, got %v", err)
	}
	// A missing catalog directory reports the underlying error.
	_, err = capture(t, func() error {
		return cmdServe([]string{"-catalog", filepath.Join(dir, "nope")})
	})
	if err == nil {
		t.Error("want error for missing directory")
	}
}

// TestCmdServeRejectsCacheSizeBelowOne: -cache-size 0 or below is a
// usage error in both modes, before any model loads or any port binds;
// a single-model server would otherwise round it up to one entry and a
// catalog would read it as the 64-entry default.
func TestCmdServeRejectsCacheSizeBelowOne(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "m.xml"), []byte(core.SampleSales().XMLString()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-cache-size", "0"},
		{"-cache-size", "-3"},
		{"-cache-size", "0", "-catalog", dir},
		{"-cache-size", "-1", "-catalog", dir},
	} {
		_, err := capture(t, func() error { return cmdServe(args) })
		if err == nil || !strings.Contains(err.Error(), "bad -cache-size") {
			t.Errorf("serve %v: want a -cache-size usage error, got %v", args, err)
		}
	}
}

// TestServeConfigZeroDisables: -timeout 0, -max-inflight 0 and
// -cache-bytes 0 turn their bounds off in both serving modes, which
// share the one Config the flags map to; a Config would read 0 as the
// default.
func TestServeConfigZeroDisables(t *testing.T) {
	cfg := serveConfig(0, 0, 3, 0, true)
	if cfg.RequestTimeout >= 0 || cfg.MaxInflight >= 0 || cfg.CacheBytes >= 0 {
		t.Errorf("0 flags map to timeout %v, max in-flight %d, cache bytes %d; want all negative (disabled)",
			cfg.RequestTimeout, cfg.MaxInflight, cfg.CacheBytes)
	}
	if cfg.CacheSize != 3 || cfg.NoCompress {
		t.Errorf("cache size %d, no-compress %v; want 3, false", cfg.CacheSize, cfg.NoCompress)
	}
	cfg = serveConfig(5*time.Second, 8, 2, 1<<20, false)
	want := server.Config{RequestTimeout: 5 * time.Second, MaxInflight: 8, CacheSize: 2, CacheBytes: 1 << 20, NoCompress: true}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("set flags changed on the way to the config: %+v, want %+v", cfg, want)
	}
}

// TestReloadCatalogPublishesEditsKeepsLastGood: reloadCatalog, which
// SIGHUP runs in serve -catalog, puts an edited model file live as its
// next generation, while a model whose file no longer parses keeps
// serving its last-good generation marked stale. Readers run beside the
// reload and must never see an error or a generation go back.
func TestReloadCatalogPublishesEditsKeepsLastGood(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name+".xml"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("edited", core.SampleSales().XMLString())
	write("broken", core.SampleHospital().XMLString())
	c := catalog.New(catalog.Options{Loader: catalog.DirLoader(dir), DisableRetry: true})
	defer c.Close()
	ctx := context.Background()
	for _, name := range []string{"edited", "broken"} {
		if err := c.Add(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	h := c.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range []string{"edited", "broken"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get("/m/" + name + "/site/index.html")
				gen, _ := strconv.ParseUint(rec.Header().Get(server.GenerationHeader), 10, 64)
				if rec.Code != 200 || gen < last {
					t.Errorf("%s during reload: status %d, generation %d after %d", name, rec.Code, gen, last)
					return
				}
				last = gen
			}
		}()
	}
	edited := core.SampleSales()
	edited.Name = "Edited Sales"
	write("edited", edited.XMLString())
	write("broken", "<broken")
	reloadCatalog(ctx, c)
	close(stop)
	wg.Wait()

	rec := get("/m/edited/site/index.html")
	if gen := rec.Header().Get(server.GenerationHeader); gen != "2" || !strings.Contains(rec.Body.String(), "Edited Sales") {
		t.Errorf("edited model: generation %s, edit live %v; want generation 2 serving the edit",
			gen, strings.Contains(rec.Body.String(), "Edited Sales"))
	}
	rec = get("/m/broken/site/index.html")
	if gen, stale := rec.Header().Get(server.GenerationHeader), rec.Header().Get(catalog.StaleHeader); rec.Code != 200 ||
		gen != "1" || stale != "republish failing at stage parse" {
		t.Errorf("broken model: status %d, generation %s, %s %q; want 200 from generation 1, stale at stage parse",
			rec.Code, gen, catalog.StaleHeader, stale)
	}
	var ready struct {
		Models []catalog.ModelStatus `json:"models"`
	}
	if err := json.Unmarshal(get("/readyz").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	for _, st := range ready.Models {
		if wantStale := st.Name == "broken"; st.Stale != wantStale || !st.Ready {
			t.Errorf("/readyz %s: ready %v, stale %v; want ready, stale %v", st.Name, st.Ready, st.Stale, wantStale)
		}
	}
}

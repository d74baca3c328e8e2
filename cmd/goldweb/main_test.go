package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"goldweb/internal/core"
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
	sheet := withFile(t, "s.xsl", `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
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
	sheet := withFile(t, "s.xsl", `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.1">
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
	sheet := withFile(t, "s.xsl", `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.1">
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
	sheet := withFile(t, "s.xsl", `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.1">
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

func TestLintGatePolicies(t *testing.T) {
	broken := []byte(strings.Replace(core.SampleSales().XMLString(), `dimclass="d1"`, `dimclass="zz"`, 1))
	if err := lintGate("strict", "bad.xml", broken, nil); err == nil {
		t.Error("strict must refuse a broken model")
	}
	if err := lintGate("warn", "bad.xml", broken, nil); err != nil {
		t.Errorf("warn must continue: %v", err)
	}
	if err := lintGate("off", "bad.xml", broken, nil); err != nil {
		t.Errorf("off must skip: %v", err)
	}
	if err := lintGate("bogus", "bad.xml", broken, nil); err == nil {
		t.Error("unknown policy must fail")
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
	// A bad -lint policy is rejected before any model loads.
	if err := os.WriteFile(filepath.Join(dir, "m.xml"), []byte(core.SampleSales().XMLString()), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = capture(t, func() error {
		return cmdServe([]string{"-catalog", dir, "-lint", "bogus"})
	})
	if err == nil || !strings.Contains(err.Error(), "bad -lint") {
		t.Errorf("want bad-lint error, got %v", err)
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

// TestCatalogServeOptionsZeroDisables: -timeout 0, -max-inflight 0 and
// -cache-bytes 0 disable their limits in catalog mode as they do for a
// single model; catalog.Options would read 0 as the server default.
func TestCatalogServeOptionsZeroDisables(t *testing.T) {
	opts := catalogServeOptions(0, 0, 3, 0, true)
	if opts.RequestTimeout >= 0 || opts.MaxInflight >= 0 || opts.CacheBytes >= 0 {
		t.Errorf("0 flags map to timeout %v, max in-flight %d, cache bytes %d; want all negative (disabled)",
			opts.RequestTimeout, opts.MaxInflight, opts.CacheBytes)
	}
	if opts.CacheSize != 3 || opts.NoCompress {
		t.Errorf("cache size %d, no-compress %v; want 3, false", opts.CacheSize, opts.NoCompress)
	}
	opts = catalogServeOptions(5*time.Second, 8, 2, 1<<20, false)
	if opts.RequestTimeout != 5*time.Second || opts.MaxInflight != 8 || opts.CacheSize != 2 ||
		opts.CacheBytes != 1<<20 || !opts.NoCompress {
		t.Errorf("set flags changed on the way to catalog.Options: %+v", opts)
	}
}

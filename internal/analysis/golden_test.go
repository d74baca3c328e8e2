package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goldweb/internal/analysis"
	"goldweb/internal/analysis/verify"
	"goldweb/internal/core"
	"goldweb/internal/xsd"
)

var update = flag.Bool("update", false, "rewrite golden .want files")

// runGolden lints every input file in testdata/<dir> and compares the
// rendered diagnostics line-for-line with the companion .want file.
func runGolden(t *testing.T, dir, ext string, lint func(name string, src []byte) []analysis.Diagnostic) {
	files, err := filepath.Glob(filepath.Join("testdata", dir, "*"+ext))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden inputs in testdata/%s: %v", dir, err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ext)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			diags := lint(filepath.Base(f), src)
			var b strings.Builder
			for _, d := range diags {
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			wantFile := strings.TrimSuffix(f, ext) + ".want"
			if *update {
				if err := os.WriteFile(wantFile, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(wantFile)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with go test -run Golden -update): %v", err)
			}
			if b.String() != string(want) {
				t.Errorf("diagnostics mismatch\ngot:\n%swant:\n%s", b.String(), want)
			}
		})
	}
}

func TestGoldenStylesheets(t *testing.T) {
	schema := core.MustSchema()
	runGolden(t, "stylesheets", ".xsl", func(name string, src []byte) []analysis.Diagnostic {
		return analysis.LintStylesheet(name, src, schema)
	})
}

func TestGoldenModels(t *testing.T) {
	schema := core.MustSchema()
	runGolden(t, "models", ".xml", func(name string, src []byte) []analysis.Diagnostic {
		return analysis.LintModelSource(name, src, schema)
	})
}

// TestGoldenGeneralSchema exercises the schema-parametric frontier: the
// committed non-GOLD example vocabulary (examples/library, a multi-file
// schema with substitution groups, wildcards, union and list types) is
// loaded with the xsd.Loader, its shipped stylesheet and instance must
// lint clean, and the corpus under testdata/general must reproduce its
// findings against that schema.
func TestGoldenGeneralSchema(t *testing.T) {
	exampleDir := filepath.Join("..", "..", "examples", "library")
	schema, err := xsd.LoadSchemaFile(filepath.Join(exampleDir, "library.xsd"))
	if err != nil {
		t.Fatalf("loading example schema: %v", err)
	}
	clean := []struct {
		file string
		lint func(name string, src []byte) []analysis.Diagnostic
	}{
		{"library.xsl", func(n string, s []byte) []analysis.Diagnostic { return analysis.LintStylesheet(n, s, schema) }},
		{"library.xml", func(n string, s []byte) []analysis.Diagnostic { return analysis.LintModelSource(n, s, schema) }},
	}
	for _, c := range clean {
		src, err := os.ReadFile(filepath.Join(exampleDir, c.file))
		if err != nil {
			t.Fatal(err)
		}
		if diags := c.lint(c.file, src); len(diags) != 0 {
			t.Errorf("shipped example %s must lint clean, got %d findings; first: %s", c.file, len(diags), diags[0])
		}
	}
	runGolden(t, "general", ".xsl", func(name string, src []byte) []analysis.Diagnostic {
		return analysis.LintStylesheet(name, src, schema)
	})
}

// TestGoldenGeneralModels lints each model under testdata/general against
// the schema of the same base name beside it.
func TestGoldenGeneralModels(t *testing.T) {
	runGolden(t, "general", ".xml", func(name string, src []byte) []analysis.Diagnostic {
		xsdFile := filepath.Join("testdata", "general", strings.TrimSuffix(name, ".xml")+".xsd")
		schema, err := xsd.LoadSchemaFile(xsdFile)
		if err != nil {
			t.Fatalf("loading %s: %v", xsdFile, err)
		}
		return analysis.LintModelSource(name, src, schema)
	})
}

// Every diagnostic code documented in DESIGN.md §7 must be triggered by
// at least one golden corpus file.
func TestGoldenCorpusCoversAllCodes(t *testing.T) {
	schema := core.MustSchema()
	covered := map[string]bool{}
	collect := func(dir, ext string, lint func(name string, src []byte) []analysis.Diagnostic) {
		files, _ := filepath.Glob(filepath.Join("testdata", dir, "*"+ext))
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range lint(filepath.Base(f), src) {
				covered[d.Code] = true
			}
		}
	}
	collect("stylesheets", ".xsl", func(name string, src []byte) []analysis.Diagnostic {
		return analysis.LintStylesheet(name, src, schema)
	})
	collect("models", ".xml", func(name string, src []byte) []analysis.Diagnostic {
		return analysis.LintModelSource(name, src, schema)
	})
	all := []string{
		analysis.CodeCompileError,
		analysis.CodeBadPattern, analysis.CodeBadStep,
		analysis.CodeBadAttribute, analysis.CodeNoText,
		analysis.CodeShadowedRule, analysis.CodeUnusedTemplate,
		analysis.CodeUnusedVariable, analysis.CodeUnusedParam,
		analysis.CodeUnusedMode,
		analysis.CodeUnknownKey, analysis.CodeUnknownRef, analysis.CodeUnknownFunc,
		analysis.CodeModelInvalid, analysis.CodeBrokenKeyref,
		verify.CodeAttrAfterContent, verify.CodeDuplicateAttr,
		verify.CodeVoidContent, verify.CodeRawTextHazard,
	}
	for _, code := range all {
		if !covered[code] {
			t.Errorf("diagnostic code %s is not exercised by any golden corpus file", code)
		}
	}
}

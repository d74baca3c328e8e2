package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"goldweb/internal/analysis"
	"goldweb/internal/analysis/verify"
	"goldweb/internal/core"
	"goldweb/internal/xsd"
	"goldweb/internal/xslt"
)

// cmdLint statically checks stylesheets (*.xsl) and model documents
// (*.xml) against an XML Schema — the embedded GOLD schema by default,
// or any schema graph named with -schema. With no arguments it lints
// the two built-in stylesheets and both sample models — the shipped
// corpus must always be clean. Directories are walked recursively.
func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	doVerify := fs.Bool("verify", false, "print a per-stylesheet bytecode verification summary")
	schemaPath := fs.String("schema", "", "lint against this schema (xs:include/xs:import graphs resolve relative to it) instead of the built-in GOLD schema")
	if err := fs.Parse(args); err != nil {
		return err
	}
	schema, schemaDiag, err := resolveSchema(*schemaPath)
	if err != nil {
		if schemaDiag != nil {
			// Schema load failures are findings too: report GW002 with the
			// offending file's provenance in both output modes.
			return emitDiags([]analysis.Diagnostic{*schemaDiag}, *asJSON)
		}
		return err
	}
	var diags []analysis.Diagnostic
	var sheets []lintSheet
	if fs.NArg() == 0 {
		diags = lintBuiltins(schema)
		sheets = []lintSheet{
			{"builtin:single.xsl", []byte(core.SingleXSL)},
			{"builtin:multi.xsl", []byte(core.MultiXSL)},
		}
	} else {
		files, err := collectLintFiles(fs.Args())
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("no .xsl or .xml files found under %s", strings.Join(fs.Args(), ", "))
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			if strings.HasSuffix(f, ".xsl") || strings.HasSuffix(f, ".xslt") {
				diags = append(diags, analysis.LintStylesheet(f, src, schema)...)
				sheets = append(sheets, lintSheet{f, src})
			} else {
				diags = append(diags, analysis.LintModelSource(f, src, schema)...)
			}
		}
	}
	analysis.Sort(diags)
	if !*asJSON && *doVerify {
		defer printVerifySummaries(sheets)
	}
	return emitDiags(diags, *asJSON)
}

// emitDiags prints diagnostics in the selected output mode and converts
// error-severity findings into a non-zero exit.
func emitDiags(diags []analysis.Diagnostic, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) == 0 {
			fmt.Println("ok: no findings")
		}
	}
	if analysis.HasErrors(diags) {
		return fmt.Errorf("%d findings (with errors)", len(diags))
	}
	return nil
}

// resolveSchema loads the -schema path (following include/import), or
// falls back to the embedded GOLD schema when the path is empty. Load
// failures also come back as a GW002 diagnostic carrying the offending
// file so callers can report them in the diagnostic stream.
func resolveSchema(path string) (*xsd.Schema, *analysis.Diagnostic, error) {
	if path == "" {
		s, err := core.Schema()
		if err != nil {
			return nil, nil, fmt.Errorf("loading built-in schema: %w", err)
		}
		return s, nil, nil
	}
	s, err := xsd.LoadSchemaFile(path)
	if err != nil {
		d := analysis.SchemaLoadDiagnostic(path, err)
		return nil, &d, fmt.Errorf("loading schema %s: %w", path, err)
	}
	return s, nil, nil
}

// lintSheet is one stylesheet the -verify summary reports on.
type lintSheet struct {
	name string
	src  []byte
}

// printVerifySummaries recompiles each linted stylesheet and reports the
// verification surface: instruction and expression counts plus the
// verifier's verdict. Findings themselves are already in the diagnostic
// stream; this is the at-a-glance proof of what was checked.
func printVerifySummaries(sheets []lintSheet) {
	for _, sh := range sheets {
		s, err := xslt.CompileStylesheetString(string(sh.src), xslt.CompileOptions{})
		if err != nil {
			fmt.Printf("verify: %s: not compiled (%v)\n", sh.name, err)
			continue
		}
		p := s.Program()
		ops, exprs := verify.Stats(p)
		findings := len(verify.Program(p)) + len(verify.Shape(p))
		verdict := "ok"
		if findings > 0 {
			verdict = fmt.Sprintf("%d findings", findings)
		}
		fmt.Printf("verify: %s: %d instructions, %d expressions verified — %s\n",
			sh.name, ops, exprs, verdict)
	}
}

func lintBuiltins(schema *xsd.Schema) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	diags = append(diags, analysis.LintStylesheet("builtin:single.xsl", []byte(core.SingleXSL), schema)...)
	diags = append(diags, analysis.LintStylesheet("builtin:multi.xsl", []byte(core.MultiXSL), schema)...)
	diags = append(diags, analysis.LintModelSource("sample:sales.xml", []byte(core.SampleSales().XMLString()), schema)...)
	diags = append(diags, analysis.LintModelSource("sample:hospital.xml", []byte(core.SampleHospital().XMLString()), schema)...)
	return diags
}

func collectLintFiles(paths []string) ([]string, error) {
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		err = filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			switch filepath.Ext(path) {
			case ".xsl", ".xslt", ".xml":
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

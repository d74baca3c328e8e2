package analysis

import (
	"goldweb/internal/analysis/verify"
	"goldweb/internal/xslt"
)

// verifyProgram runs the bytecode verifier and the result-shape
// analysis over a compiled stylesheet's program and converts the
// findings into diagnostics. Findings are positioned at the owning
// xsl:template element when one is known; the rule context is appended
// to the message the same way compile errors carry theirs.
func verifyProgram(file string, sheet *xslt.Stylesheet) []Diagnostic {
	p := sheet.Program()
	fs := verify.Program(p)
	fs = append(fs, verify.Shape(p)...)
	out := make([]Diagnostic, 0, len(fs))
	for _, f := range fs {
		d := Diagnostic{File: file, Severity: SevError, Code: f.Code, Msg: f.Msg}
		if f.Warning {
			d.Severity = SevWarning
		}
		if f.Src != nil {
			d.Line, d.Col = f.Src.Line, f.Src.Col
		}
		if f.Rule != "" {
			d.Msg += " (in " + f.Rule + ")"
		}
		out = append(out, d)
	}
	return out
}

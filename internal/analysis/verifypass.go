package analysis

import (
	"goldweb/internal/analysis/verify"
	"goldweb/internal/xslt"
)

// The GW5xx verification codes, re-exported so diagnostic consumers can
// reference them without importing the verifier.
const (
	CodeBadProgram       = verify.CodeBadProgram       // GW501: compiled bytecode or IR fails verification
	CodeAttrAfterContent = verify.CodeAttrAfterContent // GW502: attribute emitted after child content
	CodeDuplicateAttr    = verify.CodeDuplicateAttr    // GW503: attribute definitely emitted twice
	CodeVoidContent      = verify.CodeVoidContent      // GW504: HTML void element given children
	CodeRawTextHazard    = verify.CodeRawTextHazard    // GW505: raw-text element content hazard
	CodeUnreachableCode  = verify.CodeUnreachableCode  // GW506: unreachable instructions
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

package analysis

import (
	"fmt"
	"sort"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// LintModelSource parses and lints one model document against the
// schema: GW401 for structural/type violations, GW402 for referential
// (key/keyref) violations with messages that name the governing key.
func LintModelSource(file string, src []byte, schema *xsd.Schema) []Diagnostic {
	doc, err := xmldom.Parse(src)
	if err != nil {
		d := Diagnostic{File: file, Severity: SevError, Code: CodeModelInvalid, Msg: err.Error()}
		if pe, ok := err.(*xmldom.ParseError); ok {
			d.Line, d.Col, d.Msg = pe.Line, pe.Col, pe.Msg
		}
		return []Diagnostic{d}
	}
	return LintModel(file, doc, schema)
}

// LintModel lints an already-parsed model document. The document must be
// mutable: it is validated in one pass that applies schema-supplied
// attribute defaults, exactly as at publication time, and then frozen.
func LintModel(file string, doc *xmldom.Node, schema *xsd.Schema) []Diagnostic {
	return LintValidated(file, schema.ValidateAndFreeze(doc, xsd.ValidateOptions{ApplyDefaults: true}))
}

// LintValidated converts the result of a validation run made without a
// MaxErrors limit into diagnostics; it evaluates nothing itself. Each
// structural or type error becomes a GW401, and each identity-constraint
// (key/unique/keyref) error a GW402 at the node the validator selected.
// A duplicate value and a keyref value matching no key are worded from
// the error's detail, naming the governing key and its declared values;
// any other GW402 carries the validator's own message.
func LintValidated(file string, v *xsd.Validated) []Diagnostic {
	var diags []Diagnostic
	for _, e := range v.Errors {
		d := Diagnostic{
			File: file, Line: e.Line,
			Severity: SevError, Code: CodeModelInvalid,
			Msg: e.Path + ": " + e.Msg,
		}
		if id := e.Identity; id != nil {
			d.Code, d.Line, d.Col = CodeBrokenKeyref, id.Node.Line, id.Node.Col
			ic := id.Constraint
			switch {
			case id.First != nil:
				d.Msg = fmt.Sprintf("%s '%s': duplicate value '%s' (first selected at line %d)",
					ic.Kind, ic.Name, id.Tuple, id.First.Line)
			case id.Key != nil:
				d.Msg = fmt.Sprintf("keyref '%s': value '%s' matches no '%s' key value within %s (key selects %s, field %s; declared values: %s)",
					ic.Name, id.Tuple, ic.Refer, id.Scope.Name,
					id.Key.SelectorSource(), strings.Join(id.Key.FieldSources(), ", "),
					valueList(id.Keys))
			}
		}
		diags = append(diags, d)
	}
	Sort(diags)
	return diags
}

// valueList renders up to eight declared key values, sorted, for the
// GW402 message.
func valueList(keys map[string]bool) string {
	if len(keys) == 0 {
		return "(none)"
	}
	vals := make([]string, 0, len(keys))
	for v := range keys {
		vals = append(vals, strings.ReplaceAll(v, "\x1f", "|"))
	}
	sort.Strings(vals)
	if len(vals) > 8 {
		vals = append(vals[:8], "…")
	}
	return strings.Join(vals, ", ")
}

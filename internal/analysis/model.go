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

// LintValidated lints a document that has been through validation
// without a MaxErrors limit: GW401 for each structural or type error,
// GW402 for each referential (key/keyref) violation with a message
// naming the governing key.
//
// GW402 re-evaluates only the scopes the validator found violated. A
// scope it found clean has no duplicate key value and no dangling
// keyref, which are the only things GW402 reports; the others need no
// second look.
func LintValidated(file string, v *xsd.Validated) []Diagnostic {
	var diags []Diagnostic
	for _, e := range v.StructuralErrors() {
		diags = append(diags, Diagnostic{
			File: file, Line: e.Line,
			Severity: SevError, Code: CodeModelInvalid,
			Msg: e.Path + ": " + e.Msg,
		})
	}
	for _, sc := range v.Scopes {
		if sc.Violations > 0 {
			diags = append(diags, checkScope(file, sc.Elem, sc.Decl.Constraints)...)
		}
	}
	Sort(diags)
	return diags
}

// checkScope re-evaluates the key/unique/keyref constraints of one scope
// — the element and the constraints of the declaration the validator
// applied to it, as §3.1 prescribes — and reports violations as GW402
// with the governing key and its declared value set, richer than the
// validator's message.
func checkScope(file string, elem *xmldom.Node, ics []*xsd.IdentityConstraint) []Diagnostic {
	var diags []Diagnostic
	flag := func(at *xmldom.Node, format string, args ...interface{}) {
		d := Diagnostic{File: file, Severity: SevError, Code: CodeBrokenKeyref}
		if at != nil {
			d.Line, d.Col = at.Line, at.Col
		}
		d.Msg = fmt.Sprintf(format, args...)
		diags = append(diags, d)
	}
	for _, ic := range ics {
		vals, nodes := ic.Tuples(elem)
		switch ic.Kind {
		case xsd.KeyConstraint, xsd.UniqueConstraint:
			seen := map[string]*xmldom.Node{}
			for i, v := range vals {
				if v == "" {
					continue // the validator reports missing key fields
				}
				if prev, dup := seen[v]; dup {
					flag(nodes[i], "%s '%s': duplicate value '%s' (first selected at line %d)",
						ic.Kind, ic.Name, v, prev.Line)
					continue
				}
				seen[v] = nodes[i]
			}
		case xsd.KeyrefConstraint:
			var target *xsd.IdentityConstraint
			for _, other := range ics {
				if other.Name == ic.Refer && other.Kind != xsd.KeyrefConstraint {
					target = other
					break
				}
			}
			if target == nil {
				continue // schema-level problem, reported by CheckSchema
			}
			keyVals, _ := target.Tuples(elem)
			keys := map[string]bool{}
			for _, v := range keyVals {
				if v != "" {
					keys[v] = true
				}
			}
			for i, v := range vals {
				if v == "" || keys[v] {
					continue
				}
				flag(nodes[i], "keyref '%s': value '%s' matches no '%s' key value within %s (key selects %s, field %s; declared values: %s)",
					ic.Name, v, ic.Refer, elem.Name,
					target.SelectorSource(), strings.Join(target.FieldSources(), ", "),
					valueList(keys))
			}
		}
	}
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

package xslt

import (
	"sort"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// Read-only views of the compiled stylesheet IR for static analysis
// (internal/analysis). They expose what the dispatch and execution
// layers already computed — precedence-sorted rule lists, key and
// global declarations, referenced modes — without allowing mutation.

// TemplateRule is the read-only view of one compiled template rule.
type TemplateRule struct {
	Match    *xpath.Pattern // single-alternative pattern; nil for named-only templates
	Name     string
	Mode     string
	Priority float64
	// ImportPrec is the rule's import precedence; built-in rules sit far
	// below every user rule.
	ImportPrec int
	// Builtin marks the implicit rules of XSLT 1.0 §5.8.
	Builtin bool
	// Src is the declaring xsl:template element (nil for built-ins).
	Src *xmldom.Node
}

// rule returns the read-only view of t.
func (t *Template) rule() TemplateRule {
	return TemplateRule{
		Match:      t.Match,
		Name:       t.Name,
		Mode:       t.Mode,
		Priority:   t.Priority,
		ImportPrec: t.importPrec,
		Builtin:    t.src == nil,
		Src:        t.src,
	}
}

// Modes returns every mode that has template rules, sorted; the default
// mode is the empty string.
func (s *Stylesheet) Modes() []string {
	out := make([]string, 0, len(s.templates))
	for mode := range s.templates {
		out = append(out, mode)
	}
	sort.Strings(out)
	return out
}

// ReferencedModes returns every mode named by an xsl:apply-templates in
// the stylesheet, sorted.
func (s *Stylesheet) ReferencedModes() []string {
	out := make([]string, 0, len(s.referencedModes))
	for mode := range s.referencedModes {
		out = append(out, mode)
	}
	sort.Strings(out)
	return out
}

// NamedTemplate is the read-only view of an xsl:template with a name.
type NamedTemplate struct {
	Name string
	Src  *xmldom.Node
}

// NamedTemplates returns the stylesheet's named templates sorted by name.
func (s *Stylesheet) NamedTemplates() []NamedTemplate {
	out := make([]NamedTemplate, 0, len(s.named))
	for name, t := range s.named {
		out = append(out, NamedTemplate{Name: name, Src: t.src})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// KeyDecl is the read-only view of an xsl:key declaration.
type KeyDecl struct {
	Name  string
	Match *xpath.Pattern
	Use   xpath.Expr
	Src   *xmldom.Node
}

// KeyDecls returns the stylesheet's key declarations sorted by name.
func (s *Stylesheet) KeyDecls() []KeyDecl {
	out := make([]KeyDecl, 0, len(s.keys))
	for _, k := range s.keys {
		out = append(out, KeyDecl{Name: k.name, Match: k.match, Use: k.use, Src: k.src})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AttrSetNames returns the declared xsl:attribute-set names, sorted.
func (s *Stylesheet) AttrSetNames() []string {
	out := make([]string, 0, len(s.attrSets))
	for name := range s.attrSets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Binding is the read-only view of one xsl:variable or xsl:param
// declaration and of the variable references the compiler resolved to
// it under XSLT 1.0 §11.5 scoping: from bodies, attribute value
// templates, sorts, with-param values and parameter defaults, and, for
// a top-level declaration, from patterns and xsl:key. Top-level
// declarations of one name share its slot, so a reference counts for
// each. A body lowered more than once (the rules of a union pattern
// share theirs) counts its references each time.
type Binding struct {
	Name  string
	Param bool
	Refs  int
	Src   *xmldom.Node
}

// Bindings returns every variable and parameter declaration of the
// lowered program, in lowering order.
func (s *Stylesheet) Bindings() []Binding {
	var out []Binding
	seen := map[*compiledVar]bool{}
	for _, d := range s.prog.varDecls {
		if d.src == nil || seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, Binding{Name: d.name, Param: d.isParam, Refs: d.refs, Src: d.src})
	}
	return out
}

// AVTExprs compiles an attribute value template as the processor does
// and returns its {expression} parts in order; nil when src is not a
// well-formed template.
func AVTExprs(src string) []xpath.Expr {
	a, err := compileAVT(src)
	if err != nil {
		return nil
	}
	var out []xpath.Expr
	for _, part := range a.parts {
		if part.expr != nil {
			out = append(out, part.expr)
		}
	}
	return out
}

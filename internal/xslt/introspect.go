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

// ModeRules returns the compiled match rules of one mode in dispatch
// order: the first rule whose pattern matches a node wins.
func (s *Stylesheet) ModeRules(mode string) []TemplateRule {
	ts := s.templates[mode]
	out := make([]TemplateRule, 0, len(ts))
	for _, t := range ts {
		out = append(out, TemplateRule{
			Match:      t.Match,
			Name:       t.Name,
			Mode:       t.Mode,
			Priority:   t.Priority,
			ImportPrec: t.importPrec,
			Builtin:    t.src == nil,
			Src:        t.src,
		})
	}
	return out
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

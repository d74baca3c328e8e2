package analysis

import (
	"sort"

	"goldweb/internal/xsd"
)

// elemInfo is the merged content-model view of one element name.
type elemInfo struct {
	children   map[string]bool
	attrs      map[string]bool
	idAttrs    map[string]bool
	idrefAttrs map[string]bool
	text       bool
	// anyChildren / anyAttrs record xs:any / xs:anyAttribute wildcards:
	// the element may contain children or carry attributes beyond the
	// named sets, so negative claims about it are unsound.
	anyChildren bool
	anyAttrs    bool
}

// ContentGraph is the reachability view of a schema: which elements may
// appear where, which attributes and text content each element admits.
// Element declarations are merged by name — the schema's Russian-doll
// nesting means the same name can be declared inline in several places,
// and the graph takes the union of what any declaration permits, which
// keeps every check conservative (a step is only flagged when no
// declaration anywhere could satisfy it).
type ContentGraph struct {
	elems  map[string]*elemInfo
	roots  map[string]bool
	parent map[string]map[string]bool

	descMemo map[string]map[string]bool
	ancMemo  map[string]map[string]bool

	// schema backs substitution-group expansion during construction.
	schema *xsd.Schema
	// open records that some element somewhere declares an xs:any
	// wildcard: structural claims that need the whole element graph
	// (ancestors, siblings, "no element named X exists") are unsound
	// and the checks fall back to silence.
	open bool
}

// NewContentGraph derives the reachability graph from a compiled schema.
func NewContentGraph(s *xsd.Schema) *ContentGraph {
	g := &ContentGraph{
		elems:    map[string]*elemInfo{},
		roots:    map[string]bool{},
		parent:   map[string]map[string]bool{},
		descMemo: map[string]map[string]bool{},
		ancMemo:  map[string]map[string]bool{},
		schema:   s,
	}
	visited := map[*xsd.ElementDecl]bool{}
	for name, decl := range s.Elements {
		g.roots[name] = true
		g.visit(decl, visited)
	}
	for name, info := range g.elems {
		for child := range info.children {
			if g.parent[child] == nil {
				g.parent[child] = map[string]bool{}
			}
			g.parent[child][name] = true
		}
	}
	return g
}

func (g *ContentGraph) visit(decl *xsd.ElementDecl, visited map[*xsd.ElementDecl]bool) {
	if decl == nil || visited[decl] {
		return
	}
	visited[decl] = true
	info := g.elems[decl.Name]
	if info == nil {
		info = &elemInfo{
			children:   map[string]bool{},
			attrs:      map[string]bool{},
			idAttrs:    map[string]bool{},
			idrefAttrs: map[string]bool{},
		}
		g.elems[decl.Name] = info
	}
	switch {
	case decl.Complex != nil:
		if decl.Complex.Mixed {
			info.text = true
		}
		for _, ad := range decl.Complex.Attributes {
			if ad.Use == "prohibited" {
				continue
			}
			info.attrs[ad.Name] = true
			if ad.Type.IsID() {
				info.idAttrs[ad.Name] = true
			}
			if ad.Type.IsIDRef() {
				info.idrefAttrs[ad.Name] = true
			}
		}
		if decl.Complex.AnyAttr != nil {
			info.anyAttrs = true
		}
		g.visitParticle(info, decl.Complex.Content, visited)
	default:
		// Simple type, or no type at all (anyType): text content.
		info.text = true
	}
}

func (g *ContentGraph) visitParticle(info *elemInfo, p *xsd.Particle, visited map[*xsd.ElementDecl]bool) {
	if p == nil {
		return
	}
	switch p.Kind {
	case xsd.PElement:
		if p.Elem != nil {
			info.children[p.Elem.Name] = true
			g.visit(p.Elem, visited)
		}
		// A ref particle also dispatches to the substitution-group
		// members of its head; add them all as possible children.
		if p.Ref != "" && g.schema != nil {
			for _, m := range g.schema.SubstitutionMembers(p.Ref) {
				info.children[m.Name] = true
				g.visit(m, visited)
			}
		}
		return
	case xsd.PAny:
		info.anyChildren = true
		g.open = true
		return
	}
	for _, c := range p.Children {
		g.visitParticle(info, c, visited)
	}
}

// OpenSchema reports whether any element declares an xs:any wildcard,
// making whole-graph structural claims (ancestors, siblings, global
// non-existence) unsound.
func (g *ContentGraph) OpenSchema() bool { return g.open }

// AnyChildren reports whether element name declares an xs:any wildcard:
// its child set is open-ended beyond Children(name).
func (g *ContentGraph) AnyChildren(name string) bool {
	info := g.elems[name]
	return info != nil && info.anyChildren
}

// HasElement reports whether any declaration of name exists.
func (g *ContentGraph) HasElement(name string) bool { return g.elems[name] != nil }

// Roots returns the global element names (possible document roots).
func (g *ContentGraph) Roots() map[string]bool { return g.roots }

// Children returns the permitted child-element names of name.
func (g *ContentGraph) Children(name string) map[string]bool {
	if info := g.elems[name]; info != nil {
		return info.children
	}
	return nil
}

// Parents returns the element names that may contain name as a child.
func (g *ContentGraph) Parents(name string) map[string]bool { return g.parent[name] }

// HasAttr reports whether element name admits attribute attr (always
// true under an anyAttribute wildcard).
func (g *ContentGraph) HasAttr(name, attr string) bool {
	info := g.elems[name]
	return info != nil && (info.attrs[attr] || info.anyAttrs)
}

// AttrAnywhere reports whether any element declares attribute attr (or
// an anyAttribute wildcard that could admit it).
func (g *ContentGraph) AttrAnywhere(attr string) bool {
	for _, info := range g.elems {
		if info.attrs[attr] || info.anyAttrs {
			return true
		}
	}
	return false
}

// TextAllowed reports whether element name may have text content.
func (g *ContentGraph) TextAllowed(name string) bool {
	info := g.elems[name]
	return info != nil && info.text
}

// IDElements returns the element names that carry an ID-typed attribute —
// the only possible results of the id() function.
func (g *ContentGraph) IDElements() map[string]bool {
	out := map[string]bool{}
	for name, info := range g.elems {
		if len(info.idAttrs) > 0 {
			out[name] = true
		}
	}
	return out
}

// Descendants returns the transitive child closure of name (excluding
// name itself unless it is its own descendant).
func (g *ContentGraph) Descendants(name string) map[string]bool {
	return closure(name, g.descMemo, func(n string) map[string]bool { return g.Children(n) })
}

// Ancestors returns the transitive parent closure of name.
func (g *ContentGraph) Ancestors(name string) map[string]bool {
	return closure(name, g.ancMemo, func(n string) map[string]bool { return g.parent[n] })
}

func closure(name string, memo map[string]map[string]bool, next func(string) map[string]bool) map[string]bool {
	if got, ok := memo[name]; ok {
		return got
	}
	out := map[string]bool{}
	memo[name] = out // placed before the walk so cycles terminate
	stack := []string{name}
	seen := map[string]bool{name: true}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for n := range next(cur) {
			if !out[n] {
				out[n] = true
			}
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return out
}

// ElementNames returns every known element name, sorted, for messages.
func (g *ContentGraph) ElementNames() []string {
	out := make([]string, 0, len(g.elems))
	for name := range g.elems {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

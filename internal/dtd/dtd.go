// Package dtd implements a Document Type Definition validator — the
// paper's *previous* proposal ([16], "From Object-Oriented Conceptual
// Multidimensional Modeling into XML") which §3.1 declares superseded:
// "we notably improve our previous proposal by defining an XML Schema
// instead of the DTD", because DTDs have "limited data type capability"
// and their "references are not selective and can be applied to any
// element, although not being semantically correct".
//
// Having the DTD side executable makes that comparison a running
// experiment: the goldmodel DTD (embedded as core.SchemaDTD)
// accepts documents with wrong data types and cross-kind references that
// the XML Schema rejects.
//
// Supported: ELEMENT declarations with EMPTY/ANY/mixed/children content
// models (sequence, choice, ?, *, +), ATTLIST declarations with CDATA,
// ID, IDREF, IDREFS, NMTOKEN, NMTOKENS and enumerated types, and the
// #REQUIRED/#IMPLIED/#FIXED/default specifiers, plus document-wide
// ID/IDREF integrity. Parameter entities and notations are out of scope.
package dtd

import (
	"fmt"
	"strings"

	"goldweb/internal/xmldom"
)

// DTD is a parsed document type definition.
type DTD struct {
	Elements map[string]*ElementDecl
	Attlists map[string][]*AttDef
}

// ContentKind distinguishes content specifications.
type ContentKind uint8

// Content specification kinds.
const (
	ContentEmpty ContentKind = iota + 1
	ContentAny
	ContentMixed    // (#PCDATA | a | b)*
	ContentChildren // element content model
)

// ElementDecl is one <!ELEMENT ...> declaration.
type ElementDecl struct {
	Name    string
	Kind    ContentKind
	Mixed   []string // allowed child names for mixed content
	Content *CP      // for ContentChildren
}

// Occurs is a content-particle occurrence indicator.
type Occurs uint8

// Occurrence indicators.
const (
	One  Occurs = iota
	Opt         // ?
	Star        // *
	Plus        // +
)

// CPKind distinguishes content particles.
type CPKind uint8

// Content particle kinds.
const (
	CPName CPKind = iota + 1
	CPSeq
	CPChoice
)

// CP is a content particle of an element content model.
type CP struct {
	Kind     CPKind
	Name     string
	Children []*CP
	Occurs   Occurs
}

// AttType is a DTD attribute type.
type AttType uint8

// Attribute types.
const (
	AttCDATA AttType = iota + 1
	AttID
	AttIDREF
	AttIDREFS
	AttNMTOKEN
	AttNMTOKENS
	AttEnum
)

// AttDefault is an attribute default specifier.
type AttDefault uint8

// Default specifiers.
const (
	DefImplied AttDefault = iota + 1
	DefRequired
	DefFixed
	DefValue
)

// AttDef is one attribute definition of an ATTLIST.
type AttDef struct {
	Name    string
	Type    AttType
	Enum    []string
	Default AttDefault
	Value   string // for DefFixed / DefValue
}

// ParseError reports a syntax error in the DTD text.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("dtd: offset %d: %s", e.Pos, e.Msg) }

// Parse reads a standalone DTD (external subset syntax).
func Parse(src string) (*DTD, error) {
	d := &DTD{Elements: map[string]*ElementDecl{}, Attlists: map[string][]*AttDef{}}
	p := &parser{src: src}
	for {
		p.skipSpaceAndComments()
		if p.pos >= len(p.src) {
			return d, nil
		}
		switch {
		case p.has("<!ELEMENT"):
			decl, err := p.parseElement()
			if err != nil {
				return nil, err
			}
			if _, dup := d.Elements[decl.Name]; dup {
				return nil, &ParseError{p.pos, "duplicate element declaration " + decl.Name}
			}
			d.Elements[decl.Name] = decl
		case p.has("<!ATTLIST"):
			name, defs, err := p.parseAttlist()
			if err != nil {
				return nil, err
			}
			d.Attlists[name] = append(d.Attlists[name], defs...)
		case p.has("<!ENTITY"), p.has("<!NOTATION"):
			return nil, &ParseError{p.pos, "entity and notation declarations are not supported"}
		default:
			return nil, &ParseError{p.pos, "expected a markup declaration"}
		}
	}
}

type parser struct {
	src string
	pos int
}

func (p *parser) has(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' ||
		p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) skipSpaceAndComments() {
	for {
		p.skipSpace()
		if p.has("<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += 4 + end + 3
			continue
		}
		return
	}
}

func (p *parser) name() (string, error) {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
			c == '(' || c == ')' || c == '|' || c == ',' || c == '>' ||
			c == '?' || c == '*' || c == '+' || c == '#' {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return "", &ParseError{p.pos, "expected a name"}
	}
	return p.src[start:p.pos], nil
}

func (p *parser) expect(s string) error {
	if !p.has(s) {
		return &ParseError{p.pos, fmt.Sprintf("expected %q", s)}
	}
	p.pos += len(s)
	return nil
}

func (p *parser) parseElement() (*ElementDecl, error) {
	p.pos += len("<!ELEMENT")
	p.skipSpace()
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	decl := &ElementDecl{Name: name}
	p.skipSpace()
	switch {
	case p.has("EMPTY"):
		p.pos += len("EMPTY")
		decl.Kind = ContentEmpty
	case p.has("ANY"):
		p.pos += len("ANY")
		decl.Kind = ContentAny
	case p.has("("):
		save := p.pos
		p.pos++
		p.skipSpace()
		if p.has("#PCDATA") {
			p.pos += len("#PCDATA")
			decl.Kind = ContentMixed
			for {
				p.skipSpace()
				if p.has(")") {
					p.pos++
					if p.has("*") {
						p.pos++
					} else if len(decl.Mixed) > 0 {
						return nil, &ParseError{p.pos, "mixed content with elements requires ')*'"}
					}
					break
				}
				if err := p.expect("|"); err != nil {
					return nil, err
				}
				p.skipSpace()
				n, err := p.name()
				if err != nil {
					return nil, err
				}
				decl.Mixed = append(decl.Mixed, n)
			}
		} else {
			p.pos = save
			cp, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			decl.Kind = ContentChildren
			decl.Content = cp
		}
	default:
		return nil, &ParseError{p.pos, "expected a content specification"}
	}
	p.skipSpace()
	if err := p.expect(">"); err != nil {
		return nil, err
	}
	return decl, nil
}

// parseGroup parses '(' cp (sep cp)* ')' occurs?.
func (p *parser) parseGroup() (*CP, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var parts []*CP
	sep := byte(0)
	for {
		p.skipSpace()
		cp, err := p.parseCP()
		if err != nil {
			return nil, err
		}
		parts = append(parts, cp)
		p.skipSpace()
		if p.has(")") {
			p.pos++
			break
		}
		if p.pos >= len(p.src) {
			return nil, &ParseError{p.pos, "unterminated content group"}
		}
		c := p.src[p.pos]
		if c != '|' && c != ',' {
			return nil, &ParseError{p.pos, "expected '|', ',' or ')'"}
		}
		if sep == 0 {
			sep = c
		} else if sep != c {
			return nil, &ParseError{p.pos, "cannot mix ',' and '|' in one group"}
		}
		p.pos++
	}
	group := &CP{Kind: CPSeq, Children: parts}
	if sep == '|' {
		group.Kind = CPChoice
	}
	if len(parts) == 1 && sep == 0 {
		// A single particle in parentheses keeps group semantics for the
		// occurrence indicator.
		group.Kind = CPSeq
	}
	group.Occurs = p.occurs()
	return group, nil
}

func (p *parser) parseCP() (*CP, error) {
	if p.has("(") {
		return p.parseGroup()
	}
	n, err := p.name()
	if err != nil {
		return nil, err
	}
	return &CP{Kind: CPName, Name: n, Occurs: p.occurs()}, nil
}

func (p *parser) occurs() Occurs {
	if p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '?':
			p.pos++
			return Opt
		case '*':
			p.pos++
			return Star
		case '+':
			p.pos++
			return Plus
		}
	}
	return One
}

func (p *parser) parseAttlist() (string, []*AttDef, error) {
	p.pos += len("<!ATTLIST")
	p.skipSpace()
	elemName, err := p.name()
	if err != nil {
		return "", nil, err
	}
	var defs []*AttDef
	for {
		p.skipSpaceAndComments()
		if p.has(">") {
			p.pos++
			return elemName, defs, nil
		}
		def := &AttDef{}
		if def.Name, err = p.name(); err != nil {
			return "", nil, err
		}
		p.skipSpace()
		switch {
		case p.has("CDATA"):
			p.pos += len("CDATA")
			def.Type = AttCDATA
		case p.has("IDREFS"):
			p.pos += len("IDREFS")
			def.Type = AttIDREFS
		case p.has("IDREF"):
			p.pos += len("IDREF")
			def.Type = AttIDREF
		case p.has("ID"):
			p.pos += len("ID")
			def.Type = AttID
		case p.has("NMTOKENS"):
			p.pos += len("NMTOKENS")
			def.Type = AttNMTOKENS
		case p.has("NMTOKEN"):
			p.pos += len("NMTOKEN")
			def.Type = AttNMTOKEN
		case p.has("("):
			def.Type = AttEnum
			p.pos++
			for {
				p.skipSpace()
				v, err := p.name()
				if err != nil {
					return "", nil, err
				}
				def.Enum = append(def.Enum, v)
				p.skipSpace()
				if p.has(")") {
					p.pos++
					break
				}
				if err := p.expect("|"); err != nil {
					return "", nil, err
				}
			}
		default:
			return "", nil, &ParseError{p.pos, "unsupported attribute type"}
		}
		p.skipSpace()
		switch {
		case p.has("#REQUIRED"):
			p.pos += len("#REQUIRED")
			def.Default = DefRequired
		case p.has("#IMPLIED"):
			p.pos += len("#IMPLIED")
			def.Default = DefImplied
		case p.has("#FIXED"):
			p.pos += len("#FIXED")
			p.skipSpace()
			v, err := p.quoted()
			if err != nil {
				return "", nil, err
			}
			def.Default = DefFixed
			def.Value = v
		default:
			v, err := p.quoted()
			if err != nil {
				return "", nil, err
			}
			def.Default = DefValue
			def.Value = v
		}
		defs = append(defs, def)
	}
}

func (p *parser) quoted() (string, error) {
	if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
		return "", &ParseError{p.pos, "expected a quoted value"}
	}
	q := p.src[p.pos]
	p.pos++
	end := strings.IndexByte(p.src[p.pos:], q)
	if end < 0 {
		return "", &ParseError{p.pos, "unterminated quoted value"}
	}
	v := p.src[p.pos : p.pos+end]
	p.pos += end + 1
	return v, nil
}

// ---- validation ----

// ValidationError is one DTD violation.
type ValidationError struct {
	Path string
	Msg  string
}

func (e ValidationError) Error() string { return e.Path + ": " + e.Msg }

// Validate checks a document against the DTD (structure, attributes, and
// ID/IDREF integrity). This is the validation a year-2002 browser could
// perform (the paper's Fig. 4 commentary: IE "brings the possibility to
// validate an XML document against a DTD, but not against an XML
// Schema").
func (d *DTD) Validate(doc *xmldom.Node) []ValidationError {
	v := &validator{d: d, ids: map[string]bool{}}
	root := doc.DocumentElement()
	if root == nil {
		return []ValidationError{{Path: "/", Msg: "no root element"}}
	}
	if _, ok := d.Elements[root.Name]; !ok {
		return []ValidationError{{Path: root.Path(), Msg: "element " + root.Name + " is not declared"}}
	}
	v.element(root)
	for _, ref := range v.idrefs {
		if !v.ids[ref.value] {
			v.errs = append(v.errs, ValidationError{Path: ref.path,
				Msg: fmt.Sprintf("IDREF %q does not match any ID", ref.value)})
		}
	}
	return v.errs
}

type pendingRef struct {
	path, value string
}

type validator struct {
	d      *DTD
	errs   []ValidationError
	ids    map[string]bool
	idrefs []pendingRef
}

func (v *validator) errf(n *xmldom.Node, format string, args ...interface{}) {
	v.errs = append(v.errs, ValidationError{Path: n.Path(), Msg: fmt.Sprintf(format, args...)})
}

func (v *validator) element(e *xmldom.Node) {
	decl := v.d.Elements[e.Name]
	if decl == nil {
		v.errf(e, "element %s is not declared", e.Name)
		return
	}
	v.attributes(e)
	kids := e.Elements()
	switch decl.Kind {
	case ContentEmpty:
		if len(e.Children) > 0 && strings.TrimSpace(e.StringValue()) != "" || len(kids) > 0 {
			v.errf(e, "element %s is declared EMPTY", e.Name)
		}
	case ContentAny:
		// anything goes, but children still validate
	case ContentMixed:
		allowed := map[string]bool{}
		for _, n := range decl.Mixed {
			allowed[n] = true
		}
		for _, k := range kids {
			if !allowed[k.Name] {
				v.errf(k, "element %s is not allowed in mixed content of %s", k.Name, e.Name)
			}
		}
	case ContentChildren:
		for _, c := range e.Children {
			if c.Type == xmldom.TextNode && strings.TrimSpace(c.Data) != "" {
				v.errf(e, "element %s does not allow character data", e.Name)
				break
			}
		}
		m := &matcher{kids: kids}
		end := m.reach(decl.Content, map[int]bool{0: true})
		if !end[len(kids)] {
			v.errf(e, "content of %s does not match its declared model", e.Name)
		}
	}
	for _, k := range kids {
		v.element(k)
	}
}

func (v *validator) attributes(e *xmldom.Node) {
	defs := v.d.Attlists[e.Name]
	byName := map[string]*AttDef{}
	for _, def := range defs {
		byName[def.Name] = def
	}
	for _, a := range e.Attr {
		if a.URI == xmldom.XMLNSNamespace || a.URI == xmldom.XMLNamespace {
			continue
		}
		def := byName[a.Name]
		if def == nil {
			v.errf(e, "attribute %s is not declared on %s", a.Name, e.Name)
			continue
		}
		v.attValue(e, def, a.Data)
	}
	for _, def := range defs {
		if e.GetAttr(def.Name) != nil {
			continue
		}
		switch def.Default {
		case DefRequired:
			v.errf(e, "element %s is missing required attribute %s", e.Name, def.Name)
		}
	}
}

func (v *validator) attValue(e *xmldom.Node, def *AttDef, value string) {
	switch def.Type {
	case AttID:
		if v.ids[value] {
			v.errf(e, "duplicate ID %q", value)
		}
		v.ids[value] = true
	case AttIDREF:
		v.idrefs = append(v.idrefs, pendingRef{e.Path(), value})
	case AttIDREFS:
		for _, tok := range strings.Fields(value) {
			v.idrefs = append(v.idrefs, pendingRef{e.Path(), tok})
		}
	case AttEnum:
		ok := false
		for _, ev := range def.Enum {
			if value == ev {
				ok = true
				break
			}
		}
		if !ok {
			v.errf(e, "attribute %s value %q is not in (%s)", def.Name, value, strings.Join(def.Enum, "|"))
		}
	case AttNMTOKEN:
		if strings.ContainsAny(value, " \t\n\r") || value == "" {
			v.errf(e, "attribute %s value %q is not an NMTOKEN", def.Name, value)
		}
	}
	if def.Default == DefFixed && value != def.Value {
		v.errf(e, "attribute %s must have the fixed value %q", def.Name, def.Value)
	}
}

// matcher implements position-set reachability over a DTD content model,
// the same technique the xsd package uses.
type matcher struct {
	kids []*xmldom.Node
}

func (m *matcher) reach(cp *CP, starts map[int]bool) map[int]bool {
	switch cp.Occurs {
	case One:
		return m.reachOnce(cp, starts)
	case Opt:
		out := m.reachOnce(cp, starts)
		for pos := range starts {
			out[pos] = true
		}
		return out
	case Star, Plus:
		out := map[int]bool{}
		cur := starts
		if cp.Occurs == Star {
			for pos := range starts {
				out[pos] = true
			}
		}
		for i := 0; i <= len(m.kids)+1; i++ {
			next := m.reachOnce(cp, cur)
			grew := false
			for pos := range next {
				if !out[pos] {
					out[pos] = true
					grew = true
				}
			}
			if !grew || len(next) == 0 {
				break
			}
			cur = next
		}
		return out
	}
	return nil
}

func (m *matcher) reachOnce(cp *CP, starts map[int]bool) map[int]bool {
	switch cp.Kind {
	case CPName:
		out := map[int]bool{}
		for pos := range starts {
			if pos < len(m.kids) && m.kids[pos].Name == cp.Name {
				out[pos+1] = true
			}
		}
		return out
	case CPSeq:
		cur := starts
		for _, c := range cp.Children {
			cur = m.reach(c, cur)
			if len(cur) == 0 {
				return cur
			}
		}
		return cur
	case CPChoice:
		out := map[int]bool{}
		for _, c := range cp.Children {
			for pos := range m.reach(c, starts) {
				out[pos] = true
			}
		}
		return out
	}
	return nil
}

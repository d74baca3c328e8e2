package xsd

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// newSchema allocates an empty schema ready to accumulate documents.
func newSchema() *Schema {
	return &Schema{
		Elements:     map[string]*ElementDecl{},
		SimpleTypes:  map[string]*SimpleType{},
		ComplexTypes: map[string]*ComplexType{},
		substMembers: map[string][]*ElementDecl{},
		declFile:     map[string]string{},
		fileByDoc:    map[*xmldom.Node]string{},
	}
}

// ParseSchema compiles a single schema document into a Schema. Any
// xs:import/xs:include directives are ignored (there is no resolver to
// fetch them); use a Loader to compile multi-file schema graphs.
func ParseSchema(doc *xmldom.Node) (*Schema, error) {
	s := newSchema()
	if err := s.parseInto(doc, "", nil); err != nil {
		return nil, err
	}
	if err := s.resolve(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseInto accumulates one schema document's global declarations into
// the schema. file is the document's location ("" for in-memory parses)
// and is attached to every error for provenance; refs receives the
// import/include directives found (nil means ignore them).
func (s *Schema) parseInto(doc *xmldom.Node, file string, refs *[]*xmldom.Node) error {
	root := doc.DocumentElement()
	if root == nil || root.URI != Namespace || root.Name != "schema" {
		return &SchemaError{File: file, Node: root, Msg: "root element must be xsd:schema"}
	}
	s.fileByDoc[root.Root()] = file
	if s.doc == nil {
		s.doc = doc
	}
	p := &schemaParser{s: s, file: file}
	for _, c := range root.Elements() {
		if c.URI != Namespace {
			continue
		}
		switch c.Name {
		case "element":
			decl, err := p.parseElementDecl(c, true)
			if err != nil {
				return err
			}
			if prev, dup := s.Elements[decl.Name]; dup {
				return p.dupErr(c, "element", decl.Name, prev.src)
			}
			s.Elements[decl.Name] = decl
			s.declFile["element "+decl.Name] = file
		case "simpleType":
			st, err := p.parseSimpleType(c)
			if err != nil {
				return err
			}
			if st.Name == "" {
				return p.errf(c, "global simpleType requires a name")
			}
			if prev, dup := s.SimpleTypes[st.Name]; dup {
				return p.dupErr(c, "simpleType", st.Name, prev.src)
			}
			s.SimpleTypes[st.Name] = st
			s.declFile["simpleType "+st.Name] = file
		case "complexType":
			ct, err := p.parseComplexType(c)
			if err != nil {
				return err
			}
			if ct.Name == "" {
				return p.errf(c, "global complexType requires a name")
			}
			if prev, dup := s.ComplexTypes[ct.Name]; dup {
				return p.dupErr(c, "complexType", ct.Name, prev.src)
			}
			s.ComplexTypes[ct.Name] = ct
			s.declFile["complexType "+ct.Name] = file
		case "import", "include":
			if refs != nil {
				*refs = append(*refs, c)
			}
			// Without a collector (single-document parse) the directive
			// is ignored, preserving the embedded-schema behavior.
		case "annotation":
			// ignored
		case "attribute", "attributeGroup", "group", "notation", "redefine":
			return p.errf(c, "global xsd:%s is not supported", c.Name)
		default:
			return p.errf(c, "unknown schema construct xsd:%s", c.Name)
		}
	}
	return nil
}

// dupErr reports a conflicting global redefinition, naming the file of
// the first declaration when the conflict spans documents.
func (p *schemaParser) dupErr(at *xmldom.Node, kind, name string, prev *xmldom.Node) error {
	msg := "duplicate global " + kind + " " + name
	if prev != nil {
		if prevFile, ok := p.s.fileByDoc[prev.Root()]; ok && prevFile != p.file && prevFile != "" {
			msg += " (already declared in " + prevFile + ")"
		}
	}
	return p.errf(at, "%s", msg)
}

// ParseSchemaString parses the schema from XML text.
func ParseSchemaString(src string) (*Schema, error) {
	doc, err := xmldom.ParseString(src)
	if err != nil {
		return nil, err
	}
	return ParseSchema(doc)
}

// MustParseSchemaString is for embedded, known-good schemas.
func MustParseSchemaString(src string) *Schema {
	s, err := ParseSchemaString(src)
	if err != nil {
		panic(err)
	}
	return s
}

type schemaParser struct {
	s    *Schema
	file string
}

// errf builds a SchemaError carrying the parser's source file.
func (p *schemaParser) errf(n *xmldom.Node, format string, args ...interface{}) error {
	return &SchemaError{File: p.file, Node: n, Msg: fmt.Sprintf(format, args...)}
}

// schemaElements returns the xsd-namespace element children, skipping
// annotations.
func schemaElements(n *xmldom.Node) []*xmldom.Node {
	var out []*xmldom.Node
	for _, c := range n.Elements() {
		if c.URI == Namespace && c.Name != "annotation" {
			out = append(out, c)
		}
	}
	return out
}

func (p *schemaParser) parseElementDecl(e *xmldom.Node, global bool) (*ElementDecl, error) {
	decl := &ElementDecl{src: e}
	decl.Name = e.AttrValue("name")
	if ref := e.AttrValue("ref"); ref != "" {
		return nil, p.errf(e, "element ref is only allowed inside a content group")
	}
	if decl.Name == "" {
		return nil, p.errf(e, "element requires a name")
	}
	if sg := e.AttrValue("substitutionGroup"); sg != "" {
		if !global {
			return nil, p.errf(e, "substitutionGroup is only allowed on global element declarations")
		}
		decl.SubstitutionGroup = stripPrefix(sg)
	}
	switch ab := e.AttrValue("abstract"); ab {
	case "", "false":
	case "true":
		decl.Abstract = true
	default:
		return nil, p.errf(e, "bad abstract value %q", ab)
	}
	decl.TypeName = e.AttrValue("type")
	if v := e.GetAttr("default"); v != nil {
		decl.Default, decl.HasDefault = v.Data, true
	}
	if v := e.GetAttr("fixed"); v != nil {
		decl.Fixed, decl.HasFixed = v.Data, true
	}
	for _, c := range schemaElements(e) {
		switch c.Name {
		case "complexType":
			if decl.TypeName != "" || decl.Complex != nil || decl.Simple != nil {
				return nil, p.errf(c, "element %s has multiple type definitions", decl.Name)
			}
			ct, err := p.parseComplexType(c)
			if err != nil {
				return nil, err
			}
			decl.Complex = ct
		case "simpleType":
			if decl.TypeName != "" || decl.Complex != nil || decl.Simple != nil {
				return nil, p.errf(c, "element %s has multiple type definitions", decl.Name)
			}
			st, err := p.parseSimpleType(c)
			if err != nil {
				return nil, err
			}
			decl.Simple = st
		case "key", "keyref", "unique":
			ic, err := p.parseConstraint(c)
			if err != nil {
				return nil, err
			}
			decl.Constraints = append(decl.Constraints, ic)
		default:
			return nil, p.errf(c, "unexpected xsd:%s inside element %s", c.Name, decl.Name)
		}
	}
	if decl.TypeName == "" && decl.Complex == nil && decl.Simple == nil {
		// Untyped elements accept any simple content (anySimpleType).
		decl.Simple = builtinType("anySimpleType")
	}
	return decl, nil
}

func (p *schemaParser) parseComplexType(e *xmldom.Node) (*ComplexType, error) {
	ct := &ComplexType{Name: e.AttrValue("name"), Mixed: e.AttrValue("mixed") == "true", src: e}
	for _, c := range schemaElements(e) {
		switch c.Name {
		case "sequence", "choice", "all":
			if ct.Content != nil {
				return nil, p.errf(c, "complexType has multiple content groups")
			}
			part, err := p.parseGroup(c)
			if err != nil {
				return nil, err
			}
			ct.Content = part
		case "attribute":
			ad, err := p.parseAttributeDecl(c)
			if err != nil {
				return nil, err
			}
			if _, dup := ct.attrs[ad.Name]; dup {
				return nil, p.errf(c, "duplicate attribute %s", ad.Name)
			}
			if ct.attrs == nil {
				ct.attrs = map[string]*AttributeDecl{}
			}
			ct.Attributes = append(ct.Attributes, ad)
			ct.attrs[ad.Name] = ad
		case "anyAttribute":
			if ct.AnyAttr != nil {
				return nil, p.errf(c, "complexType has multiple anyAttribute wildcards")
			}
			w, err := p.parseWildcard(c)
			if err != nil {
				return nil, err
			}
			ct.AnyAttr = w
		case "simpleContent", "complexContent", "group", "attributeGroup":
			return nil, p.errf(c, "xsd:%s is not supported", c.Name)
		default:
			return nil, p.errf(c, "unexpected xsd:%s in complexType", c.Name)
		}
	}
	return ct, nil
}

// parseWildcard reads the namespace constraint and processContents mode
// of an xs:any or xs:anyAttribute declaration.
func (p *schemaParser) parseWildcard(e *xmldom.Node) (*Wildcard, error) {
	w := &Wildcard{NS: e.AttrValue("namespace"), Process: e.AttrValue("processContents"), src: e}
	if w.NS == "" {
		w.NS = "##any"
	}
	switch w.Process {
	case "":
		w.Process = "strict"
	case "strict", "lax", "skip":
	default:
		return nil, p.errf(e, "bad processContents %q (want strict, lax or skip)", w.Process)
	}
	if len(schemaElements(e)) > 0 {
		return nil, p.errf(e, "xsd:%s cannot have element content", e.Name)
	}
	return w, nil
}

func (p *schemaParser) parseGroup(e *xmldom.Node) (*Particle, error) {
	part := &Particle{src: e}
	switch e.Name {
	case "sequence":
		part.Kind = PSequence
	case "choice":
		part.Kind = PChoice
	case "all":
		part.Kind = PAll
	}
	var err error
	part.Min, part.Max, err = p.parseOccurs(e)
	if err != nil {
		return nil, err
	}
	if part.Kind == PAll && (part.Min > 1 || part.Max != 1) {
		return nil, p.errf(e, "xsd:all cannot repeat")
	}
	for _, c := range schemaElements(e) {
		switch c.Name {
		case "element":
			child := &Particle{Kind: PElement, src: c}
			child.Min, child.Max, err = p.parseOccurs(c)
			if err != nil {
				return nil, err
			}
			if ref := c.AttrValue("ref"); ref != "" {
				if c.AttrValue("name") != "" {
					return nil, p.errf(c, "element cannot have both ref and name")
				}
				if len(schemaElements(c)) > 0 {
					return nil, p.errf(c, "element ref cannot carry local definitions")
				}
				child.Ref = stripPrefix(ref)
			} else {
				decl, err := p.parseElementDecl(c, false)
				if err != nil {
					return nil, err
				}
				child.Elem = decl
			}
			part.Children = append(part.Children, child)
		case "sequence", "choice", "all":
			if part.Kind == PAll {
				return nil, p.errf(c, "xsd:all may only contain elements")
			}
			child, err := p.parseGroup(c)
			if err != nil {
				return nil, err
			}
			part.Children = append(part.Children, child)
		case "any":
			if part.Kind == PAll {
				return nil, p.errf(c, "xsd:all may only contain elements")
			}
			child := &Particle{Kind: PAny, src: c}
			child.Min, child.Max, err = p.parseOccurs(c)
			if err != nil {
				return nil, err
			}
			child.Wildcard, err = p.parseWildcard(c)
			if err != nil {
				return nil, err
			}
			part.Children = append(part.Children, child)
		default:
			return nil, p.errf(c, "unexpected xsd:%s in content group", c.Name)
		}
	}
	return part, nil
}

func (p *schemaParser) parseOccurs(e *xmldom.Node) (int, int, error) {
	min, max := 1, 1
	if v := e.AttrValue("minOccurs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 0, 0, p.errf(e, "bad minOccurs %s", v)
		}
		min = n
	}
	if v := e.AttrValue("maxOccurs"); v != "" {
		if v == "unbounded" {
			max = Unbounded
		} else {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return 0, 0, p.errf(e, "bad maxOccurs %s", v)
			}
			max = n
		}
	}
	if max != Unbounded && min > max {
		return 0, 0, p.errf(e, "minOccurs %d exceeds maxOccurs %d", min, max)
	}
	return min, max, nil
}

func (p *schemaParser) parseAttributeDecl(e *xmldom.Node) (*AttributeDecl, error) {
	ad := &AttributeDecl{Name: e.AttrValue("name"), TypeName: e.AttrValue("type"),
		Use: e.AttrValue("use"), src: e}
	if ad.Name == "" {
		return nil, p.errf(e, "attribute requires a name")
	}
	switch ad.Use {
	case "", "optional", "required", "prohibited":
	default:
		return nil, p.errf(e, "bad attribute use %s", ad.Use)
	}
	if v := e.GetAttr("default"); v != nil {
		ad.Default, ad.HasDefault = v.Data, true
	}
	if v := e.GetAttr("fixed"); v != nil {
		ad.Fixed, ad.HasFixed = v.Data, true
	}
	if ad.HasDefault && ad.HasFixed {
		return nil, p.errf(e, "attribute %s cannot have both default and fixed", ad.Name)
	}
	if ad.HasDefault && ad.Use == "required" {
		return nil, p.errf(e, "required attribute %s cannot have a default", ad.Name)
	}
	for _, c := range schemaElements(e) {
		if c.Name != "simpleType" {
			return nil, p.errf(c, "unexpected xsd:%s in attribute", c.Name)
		}
		st, err := p.parseSimpleType(c)
		if err != nil {
			return nil, err
		}
		ad.Type = st
	}
	if ad.TypeName == "" && ad.Type == nil {
		ad.Type = builtinType("anySimpleType")
	}
	return ad, nil
}

func (p *schemaParser) parseSimpleType(e *xmldom.Node) (*SimpleType, error) {
	st := &SimpleType{Name: e.AttrValue("name"), src: e}
	kids := schemaElements(e)
	if len(kids) != 1 {
		return nil, p.errf(e, "simpleType must contain exactly one xsd:restriction, xsd:list or xsd:union")
	}
	switch kids[0].Name {
	case "restriction":
		return p.parseRestriction(st, kids[0])
	case "list":
		return p.parseList(st, kids[0])
	case "union":
		return p.parseUnion(st, kids[0])
	}
	return nil, p.errf(kids[0], "simpleType must contain exactly one xsd:restriction, xsd:list or xsd:union")
}

func (p *schemaParser) parseList(st *SimpleType, l *xmldom.Node) (*SimpleType, error) {
	st.itemRef = l.AttrValue("itemType")
	inline := schemaElements(l)
	switch {
	case st.itemRef != "" && len(inline) > 0:
		return nil, p.errf(l, "list cannot have both itemType and an inline simpleType")
	case st.itemRef == "":
		if len(inline) != 1 || inline[0].Name != "simpleType" {
			return nil, p.errf(l, "list requires itemType or exactly one inline simpleType")
		}
		item, err := p.parseSimpleType(inline[0])
		if err != nil {
			return nil, err
		}
		st.Item = item
	}
	return st, nil
}

func (p *schemaParser) parseUnion(st *SimpleType, u *xmldom.Node) (*SimpleType, error) {
	st.memberRefs = append(st.memberRefs, strings.Fields(u.AttrValue("memberTypes"))...)
	for _, c := range schemaElements(u) {
		if c.Name != "simpleType" {
			return nil, p.errf(c, "unexpected xsd:%s in union", c.Name)
		}
		m, err := p.parseSimpleType(c)
		if err != nil {
			return nil, err
		}
		st.Members = append(st.Members, m)
	}
	if len(st.memberRefs)+len(st.Members) == 0 {
		return nil, p.errf(u, "union requires memberTypes or at least one inline simpleType")
	}
	return st, nil
}

func (p *schemaParser) parseRestriction(st *SimpleType, r *xmldom.Node) (*SimpleType, error) {
	st.Base = r.AttrValue("base")
	if st.Base == "" {
		return nil, p.errf(r, "restriction requires a base")
	}
	intFacet := func(c *xmldom.Node) (*int, error) {
		n, err := strconv.Atoi(c.AttrValue("value"))
		if err != nil || n < 0 {
			return nil, p.errf(c, "bad facet value %s", c.AttrValue("value"))
		}
		return &n, nil
	}
	numFacet := func(c *xmldom.Node) (*float64, error) {
		f, err := strconv.ParseFloat(c.AttrValue("value"), 64)
		if err != nil {
			return nil, p.errf(c, "bad facet value %s", c.AttrValue("value"))
		}
		return &f, nil
	}
	for _, c := range schemaElements(r) {
		var err error
		switch c.Name {
		case "enumeration":
			st.Enum = append(st.Enum, c.AttrValue("value"))
		case "pattern":
			src := c.AttrValue("value")
			re, rerr := compileXSDPattern(src)
			if rerr != nil {
				return nil, p.errf(c, "bad pattern %s: %s", src, rerr.Error())
			}
			st.Patterns = append(st.Patterns, re)
			st.patternSrcs = append(st.patternSrcs, src)
		case "length":
			st.Length, err = intFacet(c)
		case "minLength":
			st.MinLength, err = intFacet(c)
		case "maxLength":
			st.MaxLength, err = intFacet(c)
		case "totalDigits":
			st.TotalDigits, err = intFacet(c)
			if err == nil && *st.TotalDigits == 0 {
				return nil, p.errf(c, "totalDigits must be positive")
			}
		case "fractionDigits":
			st.FractionDigits, err = intFacet(c)
		case "minInclusive":
			st.MinInclusive, err = numFacet(c)
		case "maxInclusive":
			st.MaxInclusive, err = numFacet(c)
		case "minExclusive":
			st.MinExclusive, err = numFacet(c)
		case "maxExclusive":
			st.MaxExclusive, err = numFacet(c)
		case "whiteSpace":
			ws := c.AttrValue("value")
			switch ws {
			case "preserve", "replace", "collapse":
				st.WhiteSpace = ws
			default:
				return nil, p.errf(c, "bad whiteSpace value %s", ws)
			}
		default:
			return nil, p.errf(c, "unknown facet xsd:%s", c.Name)
		}
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// compileXSDPattern translates an XSD regular expression into a Go regexp.
// XSD patterns are implicitly anchored; the common subset (character
// classes, quantifiers, alternation) is shared syntax.
func compileXSDPattern(src string) (*regexp.Regexp, error) {
	// \i, \c (name characters) are XSD-specific; approximate them.
	rep := strings.NewReplacer(
		`\i`, `[A-Za-z_:]`,
		`\c`, `[-A-Za-z0-9_:.·]`,
	)
	return regexp.Compile(`\A(?:` + rep.Replace(src) + `)\z`)
}

func (p *schemaParser) parseConstraint(e *xmldom.Node) (*IdentityConstraint, error) {
	ic := &IdentityConstraint{Name: e.AttrValue("name"), src: e}
	switch e.Name {
	case "key":
		ic.Kind = KeyConstraint
	case "unique":
		ic.Kind = UniqueConstraint
	case "keyref":
		ic.Kind = KeyrefConstraint
		ic.Refer = e.AttrValue("refer")
		if ic.Refer == "" {
			return nil, p.errf(e, "keyref requires refer")
		}
		// refer is a QName; constraints live in no namespace here.
		if i := strings.IndexByte(ic.Refer, ':'); i >= 0 {
			ic.Refer = ic.Refer[i+1:]
		}
	}
	if ic.Name == "" {
		return nil, p.errf(e, "identity constraint requires a name")
	}
	for _, c := range schemaElements(e) {
		switch c.Name {
		case "selector":
			src := c.AttrValue("xpath")
			expr, err := xpath.Compile(src)
			if err != nil {
				return nil, p.errf(c, "bad selector xpath: %s", err.Error())
			}
			ic.Selector = expr
			ic.selectorSrc = src
		case "field":
			src := c.AttrValue("xpath")
			expr, err := xpath.Compile(src)
			if err != nil {
				return nil, p.errf(c, "bad field xpath: %s", err.Error())
			}
			ic.Fields = append(ic.Fields, expr)
			ic.fieldSrcs = append(ic.fieldSrcs, src)
			ic.fieldAttrs = append(ic.fieldAttrs, attrField(src))
		default:
			return nil, p.errf(c, "unexpected xsd:%s in %s", c.Name, e.Name)
		}
	}
	if ic.Selector == nil || len(ic.Fields) == 0 {
		return nil, p.errf(e, "%s %s requires a selector and at least one field", ic.Kind.String(), ic.Name)
	}
	return ic, nil
}

// ---- reference resolution ----

// nsForPrefix resolves a namespace prefix using the xmlns declarations in
// scope at the given schema node.
func nsForPrefix(n *xmldom.Node, prefix string) (string, bool) {
	if prefix == "xml" {
		return xmldom.XMLNamespace, true
	}
	for cur := n; cur != nil; cur = cur.Parent {
		for _, a := range cur.Attr {
			if a.URI != xmldom.XMLNSNamespace {
				continue
			}
			if prefix == "" && a.Prefix == "" && a.Name == "xmlns" {
				return a.Data, true
			}
			if a.Prefix == "xmlns" && a.Name == prefix {
				return a.Data, true
			}
		}
	}
	return "", prefix == ""
}

// fileOf reports the source file of a schema node (multi-file loads).
func (s *Schema) fileOf(n *xmldom.Node) string {
	if n == nil {
		return ""
	}
	return s.fileByDoc[n.Root()]
}

// serr builds a SchemaError with the file provenance of the node.
func (s *Schema) serr(n *xmldom.Node, format string, args ...interface{}) error {
	return &SchemaError{File: s.fileOf(n), Node: n, Msg: fmt.Sprintf(format, args...)}
}

// lookupSimple resolves a type QName to a simple type (builtin or named).
func (s *Schema) lookupSimple(ref string, at *xmldom.Node) (*SimpleType, error) {
	prefix, local := "", ref
	if i := strings.IndexByte(ref, ':'); i >= 0 {
		prefix, local = ref[:i], ref[i+1:]
	}
	uri, ok := nsForPrefix(at, prefix)
	if !ok {
		return nil, s.serr(at, "undeclared prefix in type reference %s", ref)
	}
	if uri == Namespace {
		if bt := builtinType(local); bt != nil {
			return bt, nil
		}
		return nil, s.serr(at, "unsupported built-in type xsd:%s", local)
	}
	if st, ok := s.SimpleTypes[local]; ok {
		return st, nil
	}
	return nil, nil
}

// resolve links named type references, base-type chains, element refs
// and substitution groups.
func (s *Schema) resolve() error {
	// Resolve simple-type bases, list items and union members first
	// (with cycle detection).
	state := map[*SimpleType]int{} // 0 unseen, 1 visiting, 2 done
	var resolveST func(st *SimpleType) error
	resolveST = func(st *SimpleType) error {
		if st.builtin != btNone || state[st] == 2 {
			return nil
		}
		if state[st] == 1 {
			return s.serr(st.src, "circular simpleType derivation at %s", st.Name)
		}
		state[st] = 1
		if st.Base != "" {
			base, err := s.lookupSimple(st.Base, st.src)
			if err != nil {
				return err
			}
			if base == nil {
				return s.serr(st.src, "unknown base type %s", st.Base)
			}
			if err := resolveST(base); err != nil {
				return err
			}
			st.base = base
		}
		if st.itemRef != "" {
			item, err := s.lookupSimple(st.itemRef, st.src)
			if err != nil {
				return err
			}
			if item == nil {
				return s.serr(st.src, "unknown list item type %s", st.itemRef)
			}
			st.Item = item
		}
		if st.Item != nil {
			if err := resolveST(st.Item); err != nil {
				return err
			}
		}
		if len(st.memberRefs) > 0 {
			// memberTypes references come before inline members.
			resolved := make([]*SimpleType, 0, len(st.memberRefs)+len(st.Members))
			for _, ref := range st.memberRefs {
				m, err := s.lookupSimple(ref, st.src)
				if err != nil {
					return err
				}
				if m == nil {
					return s.serr(st.src, "unknown union member type %s", ref)
				}
				resolved = append(resolved, m)
			}
			st.Members = append(resolved, st.Members...)
			st.memberRefs = nil
		}
		for _, m := range st.Members {
			if err := resolveST(m); err != nil {
				return err
			}
		}
		state[st] = 2
		return nil
	}
	for _, st := range s.SimpleTypes {
		if err := resolveST(st); err != nil {
			return err
		}
	}
	var resolveCT func(ct *ComplexType) error
	var resolveDecl func(d *ElementDecl) error
	var resolvePart func(p *Particle) error
	resolveDecl = func(d *ElementDecl) error {
		if d.TypeName != "" && d.Simple == nil && d.Complex == nil {
			st, err := s.lookupSimple(d.TypeName, d.src)
			if err != nil {
				return err
			}
			if st != nil {
				if err := resolveST(st); err != nil {
					return err
				}
				d.Simple = st
			} else if ct, ok := s.ComplexTypes[stripPrefix(d.TypeName)]; ok {
				d.Complex = ct
			} else {
				return s.serr(d.src, "unknown type %s for element %s", d.TypeName, d.Name)
			}
		}
		if d.Simple != nil {
			if err := resolveST(d.Simple); err != nil {
				return err
			}
		}
		if d.Complex != nil {
			return resolveCT(d.Complex)
		}
		return nil
	}
	resolvePart = func(p *Particle) error {
		if p == nil {
			return nil
		}
		switch p.Kind {
		case PElement:
			if p.Ref != "" {
				decl, ok := s.Elements[p.Ref]
				if !ok {
					return s.serr(p.src, "element ref %s does not match any global element", p.Ref)
				}
				p.Elem = decl
				return nil // the global loop resolves the declaration
			}
			return resolveDecl(p.Elem)
		case PAny:
			return nil
		}
		for _, c := range p.Children {
			if err := resolvePart(c); err != nil {
				return err
			}
		}
		return nil
	}
	resolvedCT := map[*ComplexType]bool{}
	resolveCT = func(ct *ComplexType) error {
		if resolvedCT[ct] {
			return nil
		}
		resolvedCT[ct] = true
		for _, ad := range ct.Attributes {
			if ad.TypeName != "" {
				st, err := s.lookupSimple(ad.TypeName, ad.src)
				if err != nil {
					return err
				}
				if st == nil {
					return s.serr(ad.src, "unknown attribute type %s", ad.TypeName)
				}
				if err := resolveST(st); err != nil {
					return err
				}
				ad.Type = st
			} else if ad.Type != nil {
				if err := resolveST(ad.Type); err != nil {
					return err
				}
			}
		}
		return resolvePart(ct.Content)
	}
	for _, ct := range s.ComplexTypes {
		if err := resolveCT(ct); err != nil {
			return err
		}
	}
	for _, d := range s.Elements {
		if err := resolveDecl(d); err != nil {
			return err
		}
	}
	return s.resolveSubstitutions()
}

// resolveSubstitutions links substitutionGroup members to their heads
// and precomputes the transitive member closure per head.
func (s *Schema) resolveSubstitutions() error {
	direct := map[string][]*ElementDecl{}
	names := make([]string, 0, len(s.Elements))
	for name := range s.Elements {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := s.Elements[name]
		if d.SubstitutionGroup == "" {
			continue
		}
		if _, ok := s.Elements[d.SubstitutionGroup]; !ok {
			return s.serr(d.src, "substitutionGroup head %s is not a global element", d.SubstitutionGroup)
		}
		direct[d.SubstitutionGroup] = append(direct[d.SubstitutionGroup], d)
	}
	for _, name := range names {
		if len(direct[name]) == 0 {
			continue
		}
		var members []*ElementDecl
		seen := map[string]bool{name: true}
		queue := append([]*ElementDecl(nil), direct[name]...)
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			if seen[m.Name] {
				continue
			}
			seen[m.Name] = true
			members = append(members, m)
			queue = append(queue, direct[m.Name]...)
		}
		sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
		s.substMembers[name] = members
	}
	return nil
}

func stripPrefix(ref string) string {
	if i := strings.IndexByte(ref, ':'); i >= 0 {
		return ref[i+1:]
	}
	return ref
}

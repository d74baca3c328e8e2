// Package xslt implements an XSLT 1.0 processor subset, extended with the
// xsl:document instruction from the XSLT 1.1 working draft that the paper
// uses to emit one HTML page per fact class and dimension class.
//
// Supported top-level elements: xsl:template (match/name/mode/priority),
// xsl:output, xsl:variable, xsl:param, xsl:key, xsl:include, xsl:import,
// xsl:strip-space, xsl:preserve-space, xsl:attribute-set. Supported
// instructions: apply-templates,
// call-template, apply-imports, for-each, value-of, text, element,
// attribute, copy, copy-of, if, choose/when/otherwise, variable, param,
// with-param, sort, number (basic), message, comment,
// processing-instruction, fallback, and document (XSLT 1.1). Unsupported
// constructs produce a compile-time error rather than being silently
// ignored.
package xslt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// Namespace is the XSLT namespace URI.
const Namespace = "http://www.w3.org/1999/XSL/Transform"

// Loader resolves hrefs for xsl:include, xsl:import and the document()
// function. Implementations typically serve embedded assets or files.
// document() freezes the tree it is given in place (xmldom.Freeze), and
// concurrent runs may call the Loader at once, so each call must return
// either a fresh document or one that is already frozen.
type Loader func(href string) (*xmldom.Node, error)

// CompileError reports a problem in a stylesheet.
type CompileError struct {
	Element *xmldom.Node
	// Line and Col locate the problem in the stylesheet source (1-based).
	// When zero they are derived from Element, so diagnostics and lint
	// findings share one file:line:col position format.
	Line, Col int
	Msg       string
	// TemplateName, TemplateMatch and TemplateMode identify the template
	// whose body the error occurred in, when known, so a diagnostic in a
	// large stylesheet names its owning rule.
	TemplateName  string
	TemplateMatch string
	TemplateMode  string
}

// Rule renders the owning template's identity (e.g. `template
// match="fact" mode="toc"` or `template name="header"`), or "" when the
// error is not inside a template.
func (e *CompileError) Rule() string {
	var b strings.Builder
	if e.TemplateName != "" {
		fmt.Fprintf(&b, `template name=%q`, e.TemplateName)
	}
	if e.TemplateMatch != "" {
		if b.Len() == 0 {
			b.WriteString("template")
		}
		fmt.Fprintf(&b, ` match=%q`, e.TemplateMatch)
	}
	if b.Len() == 0 {
		return ""
	}
	if e.TemplateMode != "" {
		fmt.Fprintf(&b, ` mode=%q`, e.TemplateMode)
	}
	return b.String()
}

// Position returns the 1-based source position of the error, falling
// back to the offending element's recorded position.
func (e *CompileError) Position() (line, col int) {
	if e.Line > 0 {
		return e.Line, e.Col
	}
	if e.Element != nil {
		return e.Element.Line, e.Element.Col
	}
	return 0, 0
}

func (e *CompileError) Error() string {
	line, col := e.Position()
	msg := e.Msg
	if rule := e.Rule(); rule != "" {
		msg += " (in " + rule + ")"
	}
	if e.Element != nil {
		return fmt.Sprintf("xslt: %s (at %s, line %d, col %d)", msg, e.Element.Path(), line, col)
	}
	if line > 0 {
		return fmt.Sprintf("xslt: %s (line %d, col %d)", msg, line, col)
	}
	return "xslt: " + msg
}

// OutputSpec mirrors xsl:output.
type OutputSpec struct {
	// Method is "xml" (default), "html" or "text".
	Method string
	// MethodExplicit records whether the stylesheet declared the method;
	// when false and the result root element is html, serialization
	// switches to the html method per XSLT 1.0 §16.
	MethodExplicit bool
	Indent         bool
	OmitDecl       bool
	DoctypePublic  string
	DoctypeSystem  string
	MediaType      string
}

// Template is a compiled template rule.
type Template struct {
	Match      *xpath.Pattern // nil for named-only templates
	Name       string
	Mode       string
	Priority   float64
	importPrec int
	order      int
	src        *xmldom.Node // declaring xsl:template element; nil for built-in rules
	// code is the template body, which the rules of one xsl:template (one
	// per alternative of its match pattern) and its named entry share.
	code *progTemplate
}

type keyDecl struct {
	name  string
	match *xpath.Pattern
	use   *xpath.Compiled
	src   *xmldom.Node // declaring xsl:key element
}

// Stylesheet is a compiled XSLT stylesheet. Once compiled it is
// read-only: all per-run state lives in the transformation engine, so a
// single Stylesheet is safe for concurrent transformations (the source
// document must likewise be shareable — frozen, or never mutated).
type Stylesheet struct {
	templates map[string][]*Template // per mode, sorted best-first
	// index buckets each mode's sorted rules by the node categories their
	// match patterns can reach, so template dispatch scans only candidates.
	index     map[string]*templateIndex
	named     map[string]*Template
	globals   []*compiledVar
	keys      map[string]*keyDecl
	output    OutputSpec
	strip     []stripSpec
	preserve  []stripSpec
	loader    Loader
	nextOrder int

	// exprNS maps prefixes used inside expressions to namespace URIs.
	// Bindings are collected from xmlns declarations on stylesheet
	// elements (root and literal result elements).
	exprNS map[string]string
	// referencedModes records every mode named by an xsl:apply-templates
	// so built-in rules can be registered for it.
	referencedModes map[string]bool
	// attrSets holds compiled xsl:attribute-set declarations by name.
	attrSets map[string]*attrSet
	// prog is the lowered bytecode program every transformation runs.
	prog *Program
}

// attrSet is an xsl:attribute-set: the xsl:attribute elements it
// declares plus the names of the sets it merges in.
type attrSet struct {
	uses  []string
	attrs []*xmldom.Node
}

type stripSpec struct {
	any  bool
	name string
}

// CompileOptions configure stylesheet compilation.
type CompileOptions struct {
	// Loader resolves xsl:include / xsl:import / document() hrefs.
	// When nil, any use of those features fails.
	Loader Loader
}

// compile collects the top-level declarations of a stylesheet document
// and builds its rule lists and dispatch index; CompileStylesheet then
// lowers the bodies to bytecode. The document tree is retained and must
// not be mutated afterwards.
func compile(doc *xmldom.Node, opts CompileOptions) (*Stylesheet, error) {
	root := doc.DocumentElement()
	if root == nil {
		return nil, &CompileError{Msg: "empty stylesheet document"}
	}
	if root.URI != Namespace || (root.Name != "stylesheet" && root.Name != "transform") {
		return nil, &CompileError{Element: root, Msg: "root element must be xsl:stylesheet or xsl:transform"}
	}
	s := &Stylesheet{
		templates:       map[string][]*Template{},
		named:           map[string]*Template{},
		keys:            map[string]*keyDecl{},
		output:          OutputSpec{Method: "xml"},
		loader:          opts.Loader,
		exprNS:          map[string]string{},
		referencedModes: map[string]bool{},
		attrSets:        map[string]*attrSet{},
	}
	s.collectNS(root)
	stripStylesheetSpace(root)
	if err := s.compileTopLevel(root, 0); err != nil {
		return nil, err
	}
	s.addBuiltinRules()
	for mode := range s.templates {
		ts := s.templates[mode]
		sort.SliceStable(ts, func(i, j int) bool {
			if ts[i].importPrec != ts[j].importPrec {
				return ts[i].importPrec > ts[j].importPrec
			}
			if ts[i].Priority != ts[j].Priority {
				return ts[i].Priority > ts[j].Priority
			}
			// Later rules win ties.
			return ts[i].order > ts[j].order
		})
	}
	s.index = make(map[string]*templateIndex, len(s.templates))
	for mode, ts := range s.templates {
		s.index[mode] = buildTemplateIndex(ts)
	}
	return s, nil
}

// templateIndex is the per-mode dispatch index. Each bucket holds, in full
// precedence order, every template whose pattern could match a node of
// that category; elemByName/attrByName buckets merge the name-specific
// rules with the any-name ("wildcard") rules, so a single bucket scan is a
// complete search.
type templateIndex struct {
	elemByName map[xmldom.Sym][]*Template
	elemAny    []*Template // element rules with no single-name restriction
	attrByName map[xmldom.Sym][]*Template
	attrAny    []*Template
	text       []*Template
	comment    []*Template
	pi         []*Template
	doc        []*Template
}

// candidates returns the complete precedence-ordered rule list that could
// match n. n belongs to a frozen tree, so its Sym is its interned name,
// the same symbol the index interned the rule's name to; a name with no
// bucket has no name-specific rule, so the any-name list is complete.
func (ix *templateIndex) candidates(n *xmldom.Node) []*Template {
	switch n.Type {
	case xmldom.ElementNode:
		if len(ix.elemByName) > 0 {
			if l, ok := ix.elemByName[n.Sym()]; ok {
				return l
			}
		}
		return ix.elemAny
	case xmldom.AttrNode:
		if len(ix.attrByName) > 0 {
			if l, ok := ix.attrByName[n.Sym()]; ok {
				return l
			}
		}
		return ix.attrAny
	case xmldom.TextNode:
		return ix.text
	case xmldom.CommentNode:
		return ix.comment
	case xmldom.PINode:
		return ix.pi
	case xmldom.DocumentNode:
		return ix.doc
	}
	return nil
}

// buildTemplateIndex buckets a precedence-sorted rule list by match class.
func buildTemplateIndex(list []*Template) *templateIndex {
	ix := &templateIndex{}
	var elemNamed, attrNamed map[xmldom.Sym][]*Template
	pos := make(map[*Template]int, len(list))
	for i, t := range list {
		pos[t] = i
		c := t.Match.Class()
		if c.Document {
			ix.doc = append(ix.doc, t)
		}
		if c.Text {
			ix.text = append(ix.text, t)
		}
		if c.Comment {
			ix.comment = append(ix.comment, t)
		}
		if c.PI {
			ix.pi = append(ix.pi, t)
		}
		if c.Elements {
			if c.ElemName != "" {
				if elemNamed == nil {
					elemNamed = map[xmldom.Sym][]*Template{}
				}
				sym := xmldom.Intern(c.ElemName)
				elemNamed[sym] = append(elemNamed[sym], t)
			} else {
				ix.elemAny = append(ix.elemAny, t)
			}
		}
		if c.Attrs {
			if c.AttrName != "" {
				if attrNamed == nil {
					attrNamed = map[xmldom.Sym][]*Template{}
				}
				sym := xmldom.Intern(c.AttrName)
				attrNamed[sym] = append(attrNamed[sym], t)
			} else {
				ix.attrAny = append(ix.attrAny, t)
			}
		}
	}
	if elemNamed != nil {
		ix.elemByName = make(map[xmldom.Sym][]*Template, len(elemNamed))
		for sym, own := range elemNamed {
			ix.elemByName[sym] = mergeByPos(own, ix.elemAny, pos)
		}
	}
	if attrNamed != nil {
		ix.attrByName = make(map[xmldom.Sym][]*Template, len(attrNamed))
		for sym, own := range attrNamed {
			ix.attrByName[sym] = mergeByPos(own, ix.attrAny, pos)
		}
	}
	return ix
}

// mergeByPos merges two lists that are each ordered by original position
// into one list in overall position (i.e. precedence) order.
func mergeByPos(a, b []*Template, pos map[*Template]int) []*Template {
	if len(b) == 0 {
		return a
	}
	out := make([]*Template, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if pos[a[i]] < pos[b[j]] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// collectNS records namespace bindings declared on an element for use by
// prefixed names inside expressions.
func (s *Stylesheet) collectNS(elem *xmldom.Node) {
	for _, a := range elem.Attr {
		if a.URI != xmldom.XMLNSNamespace || a.Data == Namespace {
			continue
		}
		if a.Prefix == "xmlns" {
			s.exprNS[a.Name] = a.Data
		}
	}
}

// isXSL reports whether n is an element in the XSLT namespace with the
// given local name.
func isXSL(n *xmldom.Node, name string) bool {
	return n.Type == xmldom.ElementNode && n.URI == Namespace && n.Name == name
}

// stripStylesheetSpace removes whitespace-only text nodes from the
// stylesheet tree, except inside xsl:text and xml:space="preserve" scopes.
func stripStylesheetSpace(n *xmldom.Node) {
	if isXSL(n, "text") {
		return
	}
	if a := n.GetAttrNS(xmldom.XMLNamespace, "space"); a != nil && a.Data == "preserve" {
		return
	}
	kept := n.Children[:0]
	for _, c := range n.Children {
		if c.Type == xmldom.TextNode && strings.TrimSpace(c.Data) == "" {
			continue
		}
		if c.Type == xmldom.ElementNode {
			stripStylesheetSpace(c)
		}
		kept = append(kept, c)
	}
	n.Children = kept
}

func (s *Stylesheet) compileTopLevel(root *xmldom.Node, importPrec int) error {
	// Imports first (lower precedence).
	for _, c := range root.Elements() {
		if isXSL(c, "import") {
			if err := s.loadSub(c, importPrec-1); err != nil {
				return err
			}
		}
	}
	for _, c := range root.Elements() {
		if c.URI != Namespace {
			continue // top-level non-XSLT elements are ignored (data islands)
		}
		switch c.Name {
		case "import":
			// handled above
		case "include":
			if err := s.loadSub(c, importPrec); err != nil {
				return err
			}
		case "template":
			if err := s.compileTemplate(c, importPrec); err != nil {
				return err
			}
		case "output":
			s.compileOutput(c)
		case "variable", "param":
			d, err := compileVarDecl(c)
			if err != nil {
				return err
			}
			s.scan(c)
			s.globals = append(s.globals, d)
		case "key":
			if err := s.compileKey(c); err != nil {
				return err
			}
		case "strip-space":
			s.strip = append(s.strip, parseSpaceList(c.AttrValue("elements"))...)
		case "preserve-space":
			s.preserve = append(s.preserve, parseSpaceList(c.AttrValue("elements"))...)
		case "attribute-set":
			if err := s.compileAttrSet(c); err != nil {
				return err
			}
		case "namespace-alias", "decimal-format":
			return &CompileError{Element: c, Msg: "xsl:" + c.Name + " is not supported by this processor"}
		default:
			return &CompileError{Element: c, Msg: "unknown top-level element xsl:" + c.Name}
		}
	}
	return nil
}

func (s *Stylesheet) loadSub(c *xmldom.Node, prec int) error {
	href := c.AttrValue("href")
	if href == "" {
		return &CompileError{Element: c, Msg: "missing href"}
	}
	if s.loader == nil {
		return &CompileError{Element: c, Msg: "no loader configured for " + href}
	}
	doc, err := s.loader(href)
	if err != nil {
		return &CompileError{Element: c, Msg: "cannot load " + href + ": " + err.Error()}
	}
	sub := doc.DocumentElement()
	if sub == nil || sub.URI != Namespace {
		return &CompileError{Element: c, Msg: href + " is not a stylesheet"}
	}
	s.collectNS(sub)
	stripStylesheetSpace(sub)
	return s.compileTopLevel(sub, prec)
}

func parseSpaceList(list string) []stripSpec {
	var out []stripSpec
	for _, tok := range strings.Fields(list) {
		if tok == "*" {
			out = append(out, stripSpec{any: true})
		} else {
			out = append(out, stripSpec{name: tok})
		}
	}
	return out
}

func (s *Stylesheet) compileOutput(c *xmldom.Node) {
	if v := c.AttrValue("method"); v != "" {
		s.output.Method = v
		s.output.MethodExplicit = true
	}
	if v := c.AttrValue("indent"); v != "" {
		s.output.Indent = v == "yes"
	}
	if v := c.AttrValue("omit-xml-declaration"); v != "" {
		s.output.OmitDecl = v == "yes"
	}
	if v := c.AttrValue("doctype-public"); v != "" {
		s.output.DoctypePublic = v
	}
	if v := c.AttrValue("doctype-system"); v != "" {
		s.output.DoctypeSystem = v
	}
	if v := c.AttrValue("media-type"); v != "" {
		s.output.MediaType = v
	}
}

// compileAttrSet parses an xsl:attribute-set declaration. Same-named
// declarations merge (later attributes win at execution time, since they
// are applied in order and SetAttr overwrites).
func (s *Stylesheet) compileAttrSet(c *xmldom.Node) error {
	name := c.AttrValue("name")
	if name == "" {
		return &CompileError{Element: c, Msg: "xsl:attribute-set requires a name"}
	}
	set := s.attrSets[name]
	if set == nil {
		set = &attrSet{}
		s.attrSets[name] = set
	}
	set.uses = append(set.uses, splitNames(c.AttrValue("use-attribute-sets"))...)
	for _, child := range c.Elements() {
		if !isXSL(child, "attribute") {
			return &CompileError{Element: child, Msg: "xsl:attribute-set may only contain xsl:attribute"}
		}
		s.scan(child)
		set.attrs = append(set.attrs, child)
	}
	return nil
}

func splitNames(list string) []string {
	return strings.Fields(list)
}

func (s *Stylesheet) compileKey(c *xmldom.Node) error {
	name := c.AttrValue("name")
	match := c.AttrValue("match")
	use := c.AttrValue("use")
	if name == "" || match == "" || use == "" {
		return &CompileError{Element: c, Msg: "xsl:key requires name, match and use"}
	}
	pat, err := xpath.CompilePattern(match)
	if err != nil {
		return exprError(c, "match", err)
	}
	useExpr, err := xpath.Compile(use)
	if err != nil {
		return exprError(c, "use", err)
	}
	s.keys[name] = &keyDecl{name: name, match: pat, use: useExpr, src: c}
	return nil
}

func (s *Stylesheet) compileTemplate(c *xmldom.Node, importPrec int) error {
	s.collectNS(c)
	name := c.AttrValue("name")
	match := c.AttrValue("match")
	if name == "" && match == "" {
		return &CompileError{Element: c, Msg: "xsl:template requires match or name"}
	}
	mode := c.AttrValue("mode")
	s.scan(c)
	base := &Template{Name: name, Mode: mode, importPrec: importPrec, src: c, code: &progTemplate{decl: c}}
	if name != "" {
		if _, dup := s.named[name]; dup {
			return &CompileError{Element: c, Msg: "duplicate template name " + name}
		}
		s.named[name] = base
	}
	if match == "" {
		return nil
	}
	pat, err := xpath.CompilePattern(match)
	if err != nil {
		return exprError(c, "match", err)
	}
	explicitPrio := c.AttrValue("priority")
	// A union pattern behaves as separate rules, one per alternative, each
	// with its own default priority.
	for _, alt := range pat.Alternatives() {
		t := *base
		t.Match = alt
		if explicitPrio != "" {
			p, err := strconv.ParseFloat(explicitPrio, 64)
			if err != nil {
				return &CompileError{Element: c, Msg: "bad priority " + explicitPrio}
			}
			t.Priority = p
		} else {
			t.Priority = alt.DefaultPriority()
		}
		s.nextOrder++
		t.order = s.nextOrder
		s.templates[mode] = append(s.templates[mode], &t)
	}
	return nil
}

// tagTemplateError stamps a body compile error with the identity of the
// xsl:template element c that owns it.
func tagTemplateError(err error, c *xmldom.Node) error {
	if ce, ok := err.(*CompileError); ok {
		ce.TemplateName = c.AttrValue("name")
		ce.TemplateMatch = c.AttrValue("match")
		ce.TemplateMode = c.AttrValue("mode")
	}
	return err
}

// builtinDoc supplies the implicit template rules of XSLT 1.0 §5.8.
const builtinDoc = `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
<xsl:template match="*|/"><xsl:apply-templates/></xsl:template>
<xsl:template match="text()|@*"><xsl:value-of select="."/></xsl:template>
<xsl:template match="processing-instruction()|comment()"/>
</xsl:stylesheet>`

// addBuiltinRules gives every mode that has rules or that an
// xsl:apply-templates names its own copy of the built-in rules; the
// element rule applies templates in the mode it belongs to.
func (s *Stylesheet) addBuiltinRules() {
	doc := xmldom.MustParseString(builtinDoc)
	root := doc.DocumentElement()
	stripStylesheetSpace(root)
	modes := map[string]bool{"": true}
	for mode := range s.templates {
		modes[mode] = true
	}
	for mode := range s.referencedModes {
		modes[mode] = true
	}
	for mode := range modes {
		for _, c := range root.Elements() {
			code := &progTemplate{decl: c}
			pat := xpath.MustCompilePattern(c.AttrValue("match"))
			for _, alt := range pat.Alternatives() {
				s.nextOrder++
				s.templates[mode] = append(s.templates[mode], &Template{
					Match:      alt,
					Mode:       mode,
					Priority:   alt.DefaultPriority(),
					importPrec: -1 << 30, // below any user rule
					order:      -s.nextOrder,
					code:       code,
				})
			}
		}
	}
}

// shouldStrip decides whether whitespace-only text under the named source
// element is stripped, per xsl:strip-space / xsl:preserve-space.
func (s *Stylesheet) shouldStrip(elemName string) bool {
	explicit := func(specs []stripSpec) bool {
		for _, sp := range specs {
			if !sp.any && sp.name == elemName {
				return true
			}
		}
		return false
	}
	wildcard := func(specs []stripSpec) bool {
		for _, sp := range specs {
			if sp.any {
				return true
			}
		}
		return false
	}
	if explicit(s.preserve) {
		return false
	}
	if explicit(s.strip) {
		return true
	}
	if wildcard(s.preserve) {
		return false
	}
	return wildcard(s.strip)
}

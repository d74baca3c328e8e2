package xslt

import (
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// instructions lowers each XSLT instruction element, by local name: the
// processor's one list of the instructions it executes, which
// element-available() reads too. Each lowerer reads the element's
// attributes, compiles their expressions and attribute value templates
// once, and emits its opcodes and side-table entries. init fills the
// map, because its lowerers reach lowerNode, which reads it.
var instructions map[string]func(a *asm, n *xmldom.Node) error

func init() {
	instructions = map[string]func(a *asm, n *xmldom.Node) error{
		"apply-templates": (*asm).lowerApplyTemplates,
		"call-template":   (*asm).lowerCallTemplate,
		"for-each":        (*asm).lowerForEach,
		"value-of": func(a *asm, n *xmldom.Node) error {
			sel, err := requiredExpr(n, "select")
			if err != nil {
				return err
			}
			a.emit(OpValueOf, a.addExpr(sel), boolOperand(n.AttrValue("disable-output-escaping") == "yes"))
			return nil
		},
		"text": func(a *asm, n *xmldom.Node) error {
			data, ok := xslText(n)
			if !ok {
				return &CompileError{Element: n, Msg: "xsl:text may only contain text"}
			}
			a.emit(OpText, a.addStr(data), boolOperand(n.AttrValue("disable-output-escaping") == "yes"))
			return nil
		},
		"element": func(a *asm, n *xmldom.Node) error {
			name, err := requiredAVT(n, "name")
			if err != nil {
				return err
			}
			a.resolveAVT(name)
			a.p.elemSites = append(a.p.elemSites, &elemSite{name: name})
			a.emit(OpElemBegin, int32(len(a.p.elemSites)-1), 0)
			if sets := splitNames(n.AttrValue("use-attribute-sets")); len(sets) > 0 {
				a.emit(OpAttrSets, a.addSetList(sets), 0)
			}
			return a.lowerContent(n, OpEndElem, 0)
		},
		"attribute": func(a *asm, n *xmldom.Node) error {
			name, err := requiredAVT(n, "name")
			if err != nil {
				return err
			}
			a.emit(OpAttrBegin, a.addAVT(name), 0)
			return a.lowerContent(n, OpAttrEnd, 0)
		},
		"comment": func(a *asm, n *xmldom.Node) error {
			a.emit(OpCommentBegin, 0, 0)
			return a.lowerContent(n, OpCommentEnd, 0)
		},
		"processing-instruction": func(a *asm, n *xmldom.Node) error {
			name, err := requiredAVT(n, "name")
			if err != nil {
				return err
			}
			a.emit(OpPIBegin, a.addAVT(name), 0)
			return a.lowerContent(n, OpPIEnd, 0)
		},
		"copy": func(a *asm, n *xmldom.Node) error {
			sets := int32(-1)
			if names := splitNames(n.AttrValue("use-attribute-sets")); len(names) > 0 {
				sets = a.addSetList(names)
			}
			a.p.copySites = append(a.p.copySites, sets)
			cb := a.emit(OpCopyBegin, int32(len(a.p.copySites)-1), 0)
			if err := a.lowerContent(n, OpCopyEnd, 0); err != nil {
				return err
			}
			a.patchB(cb, a.here())
			return nil
		},
		"copy-of": func(a *asm, n *xmldom.Node) error {
			sel, err := requiredExpr(n, "select")
			if err != nil {
				return err
			}
			a.emit(OpCopyOf, a.addExpr(sel), 0)
			return nil
		},
		"if": func(a *asm, n *xmldom.Node) error {
			test, err := requiredExpr(n, "test")
			if err != nil {
				return err
			}
			tp := a.emit(OpTest, a.addExpr(test), 0)
			if err := a.lowerBody(n.Children); err != nil {
				return err
			}
			a.patchB(tp, a.here())
			return nil
		},
		"choose": (*asm).lowerChoose,
		"variable": func(a *asm, n *xmldom.Node) error {
			d, err := compileVarDecl(n)
			if err != nil {
				return err
			}
			if err := a.lowerValue(a.addVarDecl(d), d, n.Children); err != nil {
				return err
			}
			a.declare(d)
			return nil
		},
		"message": func(a *asm, n *xmldom.Node) error {
			a.emit(OpMsgBegin, 0, 0)
			return a.lowerContent(n, OpMsgEnd, boolOperand(n.AttrValue("terminate") == "yes"))
		},
		"document": func(a *asm, n *xmldom.Node) error {
			// XSLT 1.1 working draft: create an additional output document.
			href, err := requiredAVT(n, "href")
			if err != nil {
				return err
			}
			db := a.emit(OpDocBegin, a.addAVT(href), 0)
			if err := a.lowerBody(n.Children); err != nil {
				return err
			}
			a.docs = append(a.docs, [2]int32{int32(db), int32(a.emit(OpDocEnd, 0, 0))})
			return nil
		},
		"number": func(a *asm, n *xmldom.Node) error {
			// The processor numbers by value, or by position among the
			// same-named preceding siblings (level="single" with the
			// default count); it refuses what it would otherwise ignore.
			for _, at := range n.Attr {
				if at.URI == "" && (at.Name == "count" || at.Name == "from" || at.Name == "level" && at.Data != "single") {
					return &CompileError{Element: n, Line: at.Line, Col: at.Col,
						Msg: "xsl:number " + at.Name + "=\"" + at.Data + "\" is not supported by this processor"}
				}
			}
			ns := &numSite{format: n.AttrValue("format")}
			if ns.format == "" {
				ns.format = "1"
			}
			if v := n.AttrValue("value"); v != "" {
				e, err := xpath.Compile(v)
				if err != nil {
					return exprError(n, "value", err)
				}
				ns.value = e
				a.resolve(e)
			}
			a.p.numSites = append(a.p.numSites, ns)
			a.emit(OpNumber, int32(len(a.p.numSites)-1), 0)
			return nil
		},
		"fallback": func(*asm, *xmldom.Node) error {
			// We execute everything we compile, so fallbacks never trigger.
			return nil
		},
		"apply-imports": func(a *asm, _ *xmldom.Node) error {
			a.emit(OpApplyImports, 0, 0)
			return nil
		},
	}
}

// lowerNode lowers one body node: literal text, a literal result element
// or an instruction. Stylesheet comments and processing instructions are
// not copied to the result.
func (a *asm) lowerNode(n *xmldom.Node) error {
	switch {
	case n.Type == xmldom.TextNode:
		a.emit(OpText, a.addStr(n.Data), 0)
		return nil
	case n.Type != xmldom.ElementNode:
		return nil
	case n.URI != Namespace:
		return a.lowerLiteral(n)
	}
	if lower := instructions[n.Name]; lower != nil {
		return lower(a, n)
	}
	switch n.Name {
	case "param":
		return &CompileError{Element: n, Msg: "xsl:param is only allowed at the start of a template"}
	case "sort", "with-param":
		return &CompileError{Element: n, Msg: "xsl:" + n.Name + " is not allowed here"}
	}
	return &CompileError{Element: n, Msg: "unknown instruction xsl:" + n.Name}
}

// lowerContent lowers the content of n, then the opcode that closes it.
func (a *asm) lowerContent(n *xmldom.Node, end Opcode, opa int32) error {
	if err := a.lowerBody(n.Children); err != nil {
		return err
	}
	a.emit(end, opa, 0)
	return nil
}

// lowerLiteral lowers a literal result element: its name, its
// xsl:use-attribute-sets, each copied attribute, static or computed, and
// its content.
func (a *asm) lowerLiteral(n *xmldom.Node) error {
	p := a.p
	p.litNames = append(p.litNames, litName{prefix: n.Prefix, uri: n.URI, name: n.Name})
	a.emit(OpLitBegin, int32(len(p.litNames)-1), 0)
	if sets := literalSets(n); len(sets) > 0 {
		a.emit(OpAttrSets, a.addSetList(sets), 0)
	}
	for _, at := range n.Attr {
		if !copiedAttr(at) {
			continue
		}
		if v, ok := constAVT(at.Data); ok {
			p.litAttrs = append(p.litAttrs, litAttrOp{prefix: at.Prefix, uri: at.URI, name: at.Name, value: v})
			a.emit(OpLitAttr, int32(len(p.litAttrs)-1), 0)
			continue
		}
		v, err := compileAVT(at.Data)
		if err != nil {
			return exprErrorAt(n, at, err)
		}
		a.resolveAVT(v)
		p.avtAttrs = append(p.avtAttrs, avtAttrOp{prefix: at.Prefix, uri: at.URI, name: at.Name, value: v})
		a.emit(OpAVTAttr, int32(len(p.avtAttrs)-1), 0)
	}
	return a.lowerContent(n, OpEndElem, 0)
}

// literalSets returns the names a literal result element's
// xsl:use-attribute-sets lists.
func literalSets(n *xmldom.Node) []string {
	if at := n.GetAttrNS(Namespace, "use-attribute-sets"); at != nil {
		return splitNames(at.Data)
	}
	return nil
}

// copiedAttr reports whether an attribute of a literal result element is
// copied to the result: xsl:* attributes (version, use-attribute-sets)
// and the declaration of the XSLT namespace are not.
func copiedAttr(at *xmldom.Node) bool {
	return at.URI != Namespace && !(at.URI == xmldom.XMLNSNamespace && at.Data == Namespace)
}

// xslText returns the text of an xsl:text element; ok is false when it
// holds anything but text.
func xslText(n *xmldom.Node) (string, bool) {
	if len(n.Children) == 1 && n.Children[0].Type == xmldom.TextNode {
		return n.Children[0].Data, true
	}
	var b strings.Builder
	for _, c := range n.Children {
		if c.Type != xmldom.TextNode {
			return "", false
		}
		b.WriteString(c.Data)
	}
	return b.String(), true
}

// silent reports whether a body node lowers to nothing: a stylesheet
// comment or processing instruction, or an xsl:fallback.
func silent(n *xmldom.Node) bool {
	switch n.Type {
	case xmldom.TextNode:
		return false
	case xmldom.ElementNode:
		return isXSL(n, "fallback")
	}
	return true
}

func (a *asm) lowerApplyTemplates(n *xmldom.Node) error {
	site := &applySite{mode: n.AttrValue("mode")}
	if site.mode == "" {
		site.mode = a.mode
	}
	if sel := n.AttrValue("select"); sel != "" {
		e, err := xpath.Compile(sel)
		if err != nil {
			return exprError(n, "select", err)
		}
		site.sel = e
		a.resolve(e)
	}
	for _, c := range n.Children {
		switch {
		case c.Type != xmldom.ElementNode || isXSL(c, "with-param"):
			// With-params lower below, behind the apply.
		case isXSL(c, "sort"):
			k, err := a.compileSort(c)
			if err != nil {
				return err
			}
			site.sorts = append(site.sorts, k)
		default:
			return &CompileError{Element: c, Msg: "only xsl:sort and xsl:with-param are allowed in xsl:apply-templates"}
		}
	}
	site.disp = a.s.index[site.mode]
	a.p.applySites = append(a.p.applySites, site)
	si := int32(len(a.p.applySites) - 1)
	ap := a.emit(OpApply, si, 0)
	for _, c := range n.Children {
		if isXSL(c, "with-param") {
			w, err := a.lowerWithParam(c)
			if err != nil {
				return err
			}
			site.params = append(site.params, w)
		}
	}
	a.patchB(ap, a.here())
	it := a.emit(OpIterate, si, 0)
	a.patchB(it, a.here())
	return nil
}

func (a *asm) lowerCallTemplate(n *xmldom.Node) error {
	name := n.AttrValue("name")
	if name == "" {
		return &CompileError{Element: n, Msg: "xsl:call-template requires a name"}
	}
	site := &bcCallSite{name: name, t: a.s.named[name]}
	a.p.callSites = append(a.p.callSites, site)
	ci := int32(len(a.p.callSites) - 1)
	a.emit(OpCall, ci, 0)
	for _, c := range n.Children {
		if c.Type != xmldom.ElementNode {
			continue
		}
		if !isXSL(c, "with-param") {
			return &CompileError{Element: c, Msg: "only xsl:with-param is allowed in xsl:call-template"}
		}
		w, err := a.lowerWithParam(c)
		if err != nil {
			return err
		}
		site.params = append(site.params, w)
	}
	a.emit(OpInvoke, ci, 0)
	return nil
}

func (a *asm) lowerForEach(n *xmldom.Node) error {
	sel, err := requiredExpr(n, "select")
	if err != nil {
		return err
	}
	a.resolve(sel)
	site := &forSite{sel: sel}
	rest := n.Children
	for len(rest) > 0 && isXSL(rest[0], "sort") {
		k, err := a.compileSort(rest[0])
		if err != nil {
			return err
		}
		site.sorts = append(site.sorts, k)
		rest = rest[1:]
	}
	a.p.forSites = append(a.p.forSites, site)
	a.emit(OpForEach, int32(len(a.p.forSites)-1), 0)
	next := a.emit(OpForNext, 0, 0)
	if err := a.lowerBody(rest); err != nil {
		return err
	}
	a.emit(OpForEnd, int32(next), 0)
	a.patchB(next, a.here())
	return nil
}

// compileSort compiles an xsl:sort and resolves its expressions in the scope
// of the instruction it sorts for.
func (a *asm) compileSort(n *xmldom.Node) (sortKey, error) {
	k := sortKey{}
	// Text keys compare by code point, so the processor refuses the
	// collation attributes it could not honour.
	for _, at := range n.Attr {
		if at.URI == "" && (at.Name == "case-order" || at.Name == "lang") {
			return k, &CompileError{Element: n, Line: at.Line, Col: at.Col,
				Msg: "xsl:sort " + at.Name + "=\"" + at.Data + "\" is not supported by this processor"}
		}
	}
	sel := n.AttrValue("select")
	if sel == "" {
		sel = "."
	}
	e, err := xpath.Compile(sel)
	if err != nil {
		return k, exprError(n, "select", err)
	}
	k.sel = e
	if v := n.AttrValue("data-type"); v != "" {
		if k.dataType, err = compileAVT(v); err != nil {
			return k, exprError(n, "data-type", err)
		}
	}
	if v := n.AttrValue("order"); v != "" {
		if k.order, err = compileAVT(v); err != nil {
			return k, exprError(n, "order", err)
		}
	}
	a.resolve(k.sel)
	a.resolveAVT(k.dataType)
	a.resolveAVT(k.order)
	return k, nil
}

// lowerWithParam lowers an xsl:with-param's value into a slot of the
// caller's frame, where the entered template's OpParam reads it. A
// select makes the content ignored.
func (a *asm) lowerWithParam(n *xmldom.Node) (*compiledVar, error) {
	w := &compiledVar{name: n.AttrValue("name")}
	if w.name == "" {
		return nil, &CompileError{Element: n, Msg: "xsl:with-param requires a name"}
	}
	if sel := n.AttrValue("select"); sel != "" {
		e, err := xpath.Compile(sel)
		if err != nil {
			return nil, exprError(n, "select", err)
		}
		w.sel = e
	}
	return w, a.lowerValue(a.addVarDecl(w), w, n.Children)
}

// lowerChoose lowers each xsl:when to a test that skips its body when
// false and a jump from the body's end past the xsl:otherwise, which
// comes last.
func (a *asm) lowerChoose(n *xmldom.Node) error {
	var ends []int
	otherwise := false
	for _, c := range n.Children {
		switch {
		case c.Type != xmldom.ElementNode:
		case isXSL(c, "when"):
			if otherwise {
				return &CompileError{Element: c, Msg: "xsl:when after xsl:otherwise"}
			}
			test, err := requiredExpr(c, "test")
			if err != nil {
				return err
			}
			tp := a.emit(OpTest, a.addExpr(test), 0)
			if err := a.lowerBody(c.Children); err != nil {
				return err
			}
			ends = append(ends, a.emit(OpJmp, 0, 0))
			a.patchB(tp, a.here())
		case isXSL(c, "otherwise"):
			if otherwise {
				return &CompileError{Element: c, Msg: "duplicate xsl:otherwise"}
			}
			otherwise = true
			if err := a.lowerBody(c.Children); err != nil {
				return err
			}
		default:
			return &CompileError{Element: c, Msg: "only xsl:when and xsl:otherwise are allowed in xsl:choose"}
		}
	}
	if len(ends) == 0 {
		return &CompileError{Element: n, Msg: "xsl:choose requires at least one xsl:when"}
	}
	for _, e := range ends {
		a.patchA(e, a.here())
	}
	return nil
}

// compileVarDecl compiles the name and select of an xsl:variable or
// xsl:param element; lowering captures its content, if it has any.
func compileVarDecl(c *xmldom.Node) (*compiledVar, error) {
	d := &compiledVar{name: c.AttrValue("name"), isParam: c.Name == "param", src: c}
	if d.name == "" {
		return nil, &CompileError{Element: c, Msg: "xsl:" + c.Name + " requires a name"}
	}
	if sel := c.AttrValue("select"); sel != "" {
		if len(c.Children) > 0 {
			return nil, &CompileError{Element: c, Msg: "xsl:" + c.Name + " cannot have both select and content"}
		}
		e, err := xpath.Compile(sel)
		if err != nil {
			return nil, exprError(c, "select", err)
		}
		d.sel = e
	}
	return d, nil
}

// scan records, in document order, what must be known before any body
// is lowered: the mode of every xsl:apply-templates, since each mode it
// names gets the built-in rules and the program lays the modes out
// first, and the namespace declarations of literal result elements,
// which expressions resolve prefixes by. It visits the elements lowering
// reaches.
func (s *Stylesheet) scan(n *xmldom.Node) {
	if n.Type != xmldom.ElementNode {
		return
	}
	if n.URI != Namespace {
		s.collectNS(n)
	} else {
		switch n.Name {
		case "apply-templates":
			s.referencedModes[n.AttrValue("mode")] = true
		case "value-of", "copy-of", "number", "apply-imports", "fallback", "text", "sort":
			return // content not lowered
		case "variable", "param", "with-param":
			if n.AttrValue("select") != "" {
				return
			}
		}
	}
	for _, c := range n.Children {
		s.scan(c)
	}
}

// attrValuePos maps a byte offset inside an attribute's value to an
// absolute line/col position in the stylesheet source. The value starts
// right after `name="`; offsets past embedded newlines advance the line.
// Entity references in the raw source can shift true columns slightly;
// the mapping is exact for the plain attribute values stylesheets use.
func attrValuePos(a *xmldom.Node, off int) (line, col int) {
	if a == nil || a.Line == 0 {
		return 0, 0
	}
	qlen := len(a.Name)
	if a.Prefix != "" {
		qlen += len(a.Prefix) + 1
	}
	line, col = a.Line, a.Col+qlen+2
	if off > len(a.Data) {
		off = len(a.Data)
	}
	for i := 0; i < off; i++ {
		if a.Data[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// exprError converts an expression or AVT compile failure into a
// CompileError positioned at the failing offset inside the attribute
// value, instead of merely at the owning element.
func exprError(n *xmldom.Node, attr string, err error) *CompileError {
	return exprErrorAt(n, n.GetAttr(attr), err)
}

// exprErrorAt is exprError for callers that already hold the attribute
// node (literal result element AVTs, where names can be prefixed).
func exprErrorAt(n, a *xmldom.Node, err error) *CompileError {
	off := 0
	switch t := err.(type) {
	case *xpath.SyntaxError:
		off = t.Pos
	case *avtError:
		off = t.Off
		err = t.Err
	}
	line, col := attrValuePos(a, off)
	return &CompileError{Element: n, Line: line, Col: col, Msg: err.Error()}
}

func requiredExpr(n *xmldom.Node, attr string) (*xpath.Compiled, error) {
	src := n.AttrValue(attr)
	if src == "" {
		return nil, &CompileError{Element: n, Msg: "xsl:" + n.Name + " requires " + attr}
	}
	e, err := xpath.Compile(src)
	if err != nil {
		return nil, exprError(n, attr, err)
	}
	return e, nil
}

func requiredAVT(n *xmldom.Node, attr string) (*avt, error) {
	src := n.AttrValue(attr)
	if src == "" {
		return nil, &CompileError{Element: n, Msg: "xsl:" + n.Name + " requires " + attr}
	}
	a, err := compileAVT(src)
	if err != nil {
		return nil, exprError(n, attr, err)
	}
	return a, nil
}

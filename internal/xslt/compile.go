package xslt

import (
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// compileBody turns a sequence of stylesheet DOM nodes into compiled
// instructions. Expressions and attribute value templates are compiled
// once here, so repeated transforms pay no parsing cost.
func (s *Stylesheet) compileBody(nodes []*xmldom.Node) ([]instruction, error) {
	var out []instruction
	for _, n := range nodes {
		switch n.Type {
		case xmldom.TextNode:
			out = append(out, &iLiteralText{data: n.Data})
		case xmldom.CommentNode, xmldom.PINode:
			// Stylesheet comments and PIs are not copied to the result.
		case xmldom.ElementNode:
			ins, err := s.compileElement(n)
			if err != nil {
				return nil, err
			}
			if ins != nil {
				out = append(out, ins)
			}
		}
	}
	return out, nil
}

// instructions compiles each XSLT instruction element, by local name:
// the processor's one list of the instructions it executes, which
// element-available() reads too. init fills it, because its compilers
// reach compileElement, which reads it.
var instructions map[string]func(s *Stylesheet, n *xmldom.Node) (instruction, error)

func init() {
	instructions = map[string]func(s *Stylesheet, n *xmldom.Node) (instruction, error){
		"apply-templates": (*Stylesheet).compileApplyTemplates,
		"call-template":   (*Stylesheet).compileCallTemplate,
		"for-each":        (*Stylesheet).compileForEach,
		"value-of": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			sel, err := s.requiredExpr(n, "select")
			if err != nil {
				return nil, err
			}
			return &iValueOf{sel: sel, disableEsc: n.AttrValue("disable-output-escaping") == "yes"}, nil
		},
		"text": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			var b strings.Builder
			for _, c := range n.Children {
				if c.Type != xmldom.TextNode {
					return nil, &CompileError{Element: n, Msg: "xsl:text may only contain text"}
				}
				b.WriteString(c.Data)
			}
			return &iText{data: b.String(), disableEsc: n.AttrValue("disable-output-escaping") == "yes"}, nil
		},
		"element": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			name, err := s.requiredAVT(n, "name")
			if err != nil {
				return nil, err
			}
			body, err := s.compileBody(n.Children)
			if err != nil {
				return nil, err
			}
			return &iElement{name: name, useSets: splitNames(n.AttrValue("use-attribute-sets")), body: body}, nil
		},
		"attribute": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			name, err := s.requiredAVT(n, "name")
			if err != nil {
				return nil, err
			}
			body, err := s.compileBody(n.Children)
			if err != nil {
				return nil, err
			}
			return &iAttribute{name: name, body: body}, nil
		},
		"comment": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			body, err := s.compileBody(n.Children)
			if err != nil {
				return nil, err
			}
			return &iComment{body: body}, nil
		},
		"processing-instruction": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			name, err := s.requiredAVT(n, "name")
			if err != nil {
				return nil, err
			}
			body, err := s.compileBody(n.Children)
			if err != nil {
				return nil, err
			}
			return &iPI{name: name, body: body}, nil
		},
		"copy": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			body, err := s.compileBody(n.Children)
			if err != nil {
				return nil, err
			}
			return &iCopy{useSets: splitNames(n.AttrValue("use-attribute-sets")), body: body}, nil
		},
		"copy-of": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			sel, err := s.requiredExpr(n, "select")
			if err != nil {
				return nil, err
			}
			return &iCopyOf{sel: sel}, nil
		},
		"if": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			test, err := s.requiredExpr(n, "test")
			if err != nil {
				return nil, err
			}
			body, err := s.compileBody(n.Children)
			if err != nil {
				return nil, err
			}
			return &iIf{test: test, body: body}, nil
		},
		"choose": (*Stylesheet).compileChoose,
		"variable": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			decl, err := s.compileVarDecl(n)
			if err != nil {
				return nil, err
			}
			return &iVariable{decl: decl}, nil
		},
		"message": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			body, err := s.compileBody(n.Children)
			if err != nil {
				return nil, err
			}
			return &iMessage{body: body, terminate: n.AttrValue("terminate") == "yes"}, nil
		},
		"document": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			// XSLT 1.1 working draft: create an additional output document.
			href, err := s.requiredAVT(n, "href")
			if err != nil {
				return nil, err
			}
			body, err := s.compileBody(n.Children)
			if err != nil {
				return nil, err
			}
			return &iDocument{href: href, body: body}, nil
		},
		"number": func(s *Stylesheet, n *xmldom.Node) (instruction, error) {
			// The processor numbers by value, or by position among the
			// same-named preceding siblings (level="single" with the
			// default count); it refuses what it would otherwise ignore.
			for _, a := range n.Attr {
				if a.URI == "" && (a.Name == "count" || a.Name == "from" || a.Name == "level" && a.Data != "single") {
					return nil, &CompileError{Element: n, Line: a.Line, Col: a.Col,
						Msg: "xsl:number " + a.Name + "=\"" + a.Data + "\" is not supported by this processor"}
				}
			}
			ins := &iNumber{format: n.AttrValue("format")}
			if ins.format == "" {
				ins.format = "1"
			}
			if v := n.AttrValue("value"); v != "" {
				e, err := xpath.Compile(v)
				if err != nil {
					return nil, exprError(n, "value", err)
				}
				ins.value = e
			}
			return ins, nil
		},
		"fallback": func(*Stylesheet, *xmldom.Node) (instruction, error) {
			// We execute everything we compile, so fallbacks never trigger.
			return nil, nil
		},
		"apply-imports": func(*Stylesheet, *xmldom.Node) (instruction, error) {
			return &iApplyImports{}, nil
		},
	}
}

func (s *Stylesheet) compileElement(n *xmldom.Node) (instruction, error) {
	if n.URI != Namespace {
		return s.compileLiteral(n)
	}
	if compile := instructions[n.Name]; compile != nil {
		return compile(s, n)
	}
	switch n.Name {
	case "param":
		return nil, &CompileError{Element: n, Msg: "xsl:param is only allowed at the start of a template"}
	case "sort", "with-param":
		return nil, &CompileError{Element: n, Msg: "xsl:" + n.Name + " is not allowed here"}
	}
	return nil, &CompileError{Element: n, Msg: "unknown instruction xsl:" + n.Name}
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

func (s *Stylesheet) requiredExpr(n *xmldom.Node, attr string) (*xpath.Compiled, error) {
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

func (s *Stylesheet) requiredAVT(n *xmldom.Node, attr string) (*avt, error) {
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

func (s *Stylesheet) compileLiteral(n *xmldom.Node) (instruction, error) {
	lit := &iLiteralElement{name: n.Name, prefix: n.Prefix, uri: n.URI}
	for _, a := range n.Attr {
		if a.URI == Namespace && a.Name == "use-attribute-sets" {
			lit.useSets = splitNames(a.Data)
			continue
		}
		if a.URI == xmldom.XMLNSNamespace {
			// Record the binding for expression prefixes; re-emit only
			// declarations that do not refer to the XSLT namespace.
			if a.Data == Namespace {
				continue
			}
			prefix := a.Name
			if a.Prefix == "" {
				prefix = "" // default namespace: xmlns="..."
			}
			if prefix != "" {
				s.exprNS[prefix] = a.Data
			}
		}
		if a.URI == Namespace {
			// xsl:* attributes on literal elements (version, etc.) are
			// not copied.
			continue
		}
		val, err := compileAVT(a.Data)
		if err != nil {
			return nil, exprErrorAt(n, a, err)
		}
		lit.attrs = append(lit.attrs, literalAttr{name: a.Name, prefix: a.Prefix, uri: a.URI, value: val})
	}
	body, err := s.compileBody(n.Children)
	if err != nil {
		return nil, err
	}
	lit.body = body
	return lit, nil
}

func (s *Stylesheet) compileApplyTemplates(n *xmldom.Node) (instruction, error) {
	ins := &iApplyTemplates{mode: n.AttrValue("mode")}
	s.referencedModes[ins.mode] = true
	if sel := n.AttrValue("select"); sel != "" {
		e, err := xpath.Compile(sel)
		if err != nil {
			return nil, exprError(n, "select", err)
		}
		ins.sel = e
	}
	for _, c := range n.Elements() {
		switch {
		case isXSL(c, "sort"):
			k, err := s.compileSort(c)
			if err != nil {
				return nil, err
			}
			ins.sorts = append(ins.sorts, k)
		case isXSL(c, "with-param"):
			p, err := s.compileWithParam(c)
			if err != nil {
				return nil, err
			}
			ins.params = append(ins.params, p)
		default:
			return nil, &CompileError{Element: c, Msg: "only xsl:sort and xsl:with-param are allowed in xsl:apply-templates"}
		}
	}
	return ins, nil
}

func (s *Stylesheet) compileCallTemplate(n *xmldom.Node) (instruction, error) {
	name := n.AttrValue("name")
	if name == "" {
		return nil, &CompileError{Element: n, Msg: "xsl:call-template requires a name"}
	}
	ins := &iCallTemplate{name: name, src: n}
	for _, c := range n.Elements() {
		if !isXSL(c, "with-param") {
			return nil, &CompileError{Element: c, Msg: "only xsl:with-param is allowed in xsl:call-template"}
		}
		p, err := s.compileWithParam(c)
		if err != nil {
			return nil, err
		}
		ins.params = append(ins.params, p)
	}
	return ins, nil
}

func (s *Stylesheet) compileForEach(n *xmldom.Node) (instruction, error) {
	sel, err := s.requiredExpr(n, "select")
	if err != nil {
		return nil, err
	}
	ins := &iForEach{sel: sel}
	rest := n.Children
	for len(rest) > 0 && isXSL(rest[0], "sort") {
		k, err := s.compileSort(rest[0])
		if err != nil {
			return nil, err
		}
		ins.sorts = append(ins.sorts, k)
		rest = rest[1:]
	}
	body, err := s.compileBody(rest)
	if err != nil {
		return nil, err
	}
	ins.body = body
	return ins, nil
}

func (s *Stylesheet) compileSort(n *xmldom.Node) (sortKey, error) {
	k := sortKey{}
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
		k.dataType, err = compileAVT(v)
		if err != nil {
			return k, exprError(n, "data-type", err)
		}
	}
	if v := n.AttrValue("order"); v != "" {
		k.order, err = compileAVT(v)
		if err != nil {
			return k, exprError(n, "order", err)
		}
	}
	return k, nil
}

func (s *Stylesheet) compileWithParam(n *xmldom.Node) (*compiledVar, error) {
	p := &compiledVar{name: n.AttrValue("name")}
	if p.name == "" {
		return nil, &CompileError{Element: n, Msg: "xsl:with-param requires a name"}
	}
	if sel := n.AttrValue("select"); sel != "" {
		e, err := xpath.Compile(sel)
		if err != nil {
			return nil, exprError(n, "select", err)
		}
		p.sel = e
		return p, nil
	}
	body, err := s.compileBody(n.Children)
	if err != nil {
		return nil, err
	}
	p.body = body
	return p, nil
}

func (s *Stylesheet) compileChoose(n *xmldom.Node) (instruction, error) {
	ins := &iChoose{}
	for _, c := range n.Elements() {
		switch {
		case isXSL(c, "when"):
			if ins.otherwise != nil {
				return nil, &CompileError{Element: c, Msg: "xsl:when after xsl:otherwise"}
			}
			test, err := s.requiredExpr(c, "test")
			if err != nil {
				return nil, err
			}
			body, err := s.compileBody(c.Children)
			if err != nil {
				return nil, err
			}
			ins.whens = append(ins.whens, chooseWhen{test: test, body: body})
		case isXSL(c, "otherwise"):
			if ins.otherwise != nil {
				return nil, &CompileError{Element: c, Msg: "duplicate xsl:otherwise"}
			}
			body, err := s.compileBody(c.Children)
			if err != nil {
				return nil, err
			}
			if body == nil {
				body = []instruction{}
			}
			ins.otherwise = body
		default:
			return nil, &CompileError{Element: c, Msg: "only xsl:when and xsl:otherwise are allowed in xsl:choose"}
		}
	}
	if len(ins.whens) == 0 {
		return nil, &CompileError{Element: n, Msg: "xsl:choose requires at least one xsl:when"}
	}
	return ins, nil
}

// compileVarDecl compiles an xsl:variable or xsl:param element.
func (s *Stylesheet) compileVarDecl(c *xmldom.Node) (*compiledVar, error) {
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
		return d, nil
	}
	body, err := s.compileBody(c.Children)
	if err != nil {
		return nil, err
	}
	d.body = body
	return d, nil
}

package analysis

import (
	"fmt"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
	"goldweb/internal/xsd"
	"goldweb/internal/xslt"
)

// pos is a diagnostic anchor: any DOM node carrying Line/Col.
type pos = *xmldom.Node

type ssLint struct {
	file  string
	g     *ContentGraph
	sheet *xslt.Stylesheet
	root  *xmldom.Node

	// mute suppresses diagnostics during context-propagation passes so
	// the interprocedural fixpoint does not duplicate findings.
	mute  bool
	diags []Diagnostic

	keyClass map[string]ctxSet
	namedSrc map[string]*xmldom.Node
	attrSets map[string]bool

	// entry accumulates the merged call-site context of each named
	// template across fixpoint iterations.
	entry       map[string]ctxSet
	entryStable bool

	calledTemplates map[string]bool
}

// LintStylesheet parses, compiles and lints one stylesheet against the
// schema. Parse and compile failures are reported as GW001 diagnostics
// rather than errors so callers get one uniform finding stream.
func LintStylesheet(file string, src []byte, schema *xsd.Schema) []Diagnostic {
	doc, err := xmldom.Parse(src)
	if err != nil {
		d := Diagnostic{File: file, Severity: SevError, Code: CodeCompileError, Msg: err.Error()}
		if pe, ok := err.(*xmldom.ParseError); ok {
			d.Line, d.Col, d.Msg = pe.Line, pe.Col, pe.Msg
		}
		return []Diagnostic{d}
	}
	sheet, err := xslt.CompileStylesheet(doc, xslt.CompileOptions{})
	if err != nil {
		d := Diagnostic{File: file, Severity: SevError, Code: CodeCompileError, Msg: err.Error()}
		if ce, ok := err.(*xslt.CompileError); ok {
			d.Line, d.Col = ce.Position()
			d.Msg = ce.Msg
			if rule := ce.Rule(); rule != "" {
				d.Msg += " (in " + rule + ")"
			}
		}
		return []Diagnostic{d}
	}
	l := &ssLint{
		file:            file,
		g:               NewContentGraph(schema),
		sheet:           sheet,
		root:            doc.DocumentElement(),
		keyClass:        map[string]ctxSet{},
		namedSrc:        map[string]*xmldom.Node{},
		attrSets:        map[string]bool{},
		entry:           map[string]ctxSet{},
		calledTemplates: map[string]bool{},
	}
	l.run()
	l.diags = append(l.diags, verifyProgram(file, sheet)...)
	Sort(l.diags)
	return l.diags
}

func (l *ssLint) run() {
	for _, nt := range l.sheet.NamedTemplates() {
		l.namedSrc[nt.Name] = nt.Src
	}
	for _, name := range l.sheet.AttrSetNames() {
		l.attrSets[name] = true
	}

	// Phase 1: propagate contexts into named templates until the entry
	// sets stop growing. Diagnostics are muted; only the context flow
	// matters. The union lattice is finite, so this terminates; the
	// iteration cap is a safety net.
	l.mute = true
	l.buildKeyClasses()
	for i := 0; i <= len(l.namedSrc)+1; i++ {
		l.entryStable = true
		l.walkGlobalDecls()
		l.walkTemplates()
		if l.entryStable {
			break
		}
	}

	// Phase 2: the diagnostic pass, with final entry contexts.
	l.mute = false
	l.buildKeyClasses()
	l.walkGlobalDecls()
	l.walkTemplates()
	l.walkAttrSets()
	l.checkShadowing()
	l.checkUnusedModes()
	l.checkUnusedNamedTemplates()
	l.reportUnused()
}

func (l *ssLint) flag(at pos, sev Severity, code, format string, args ...interface{}) {
	if l.mute {
		return
	}
	d := Diagnostic{File: l.file, Severity: sev, Code: code, Msg: fmt.Sprintf(format, args...)}
	if at != nil {
		d.Line, d.Col = at.Line, at.Col
	}
	l.diags = append(l.diags, d)
}

// attrNode anchors a diagnostic at an attribute when present, else at
// the element itself.
func attrNode(n *xmldom.Node, name string) pos {
	if a := n.GetAttr(name); a != nil {
		return a
	}
	return n
}

func isXSL(n *xmldom.Node, name string) bool {
	return n.Type == xmldom.ElementNode && n.URI == xslt.Namespace && n.Name == name
}

// buildKeyClasses checks each xsl:key and records the context class its
// key() calls produce (the elements its match pattern can select).
func (l *ssLint) buildKeyClasses() {
	for _, kd := range l.sheet.KeyDecls() {
		at := kd.Src
		cls := l.checkPattern(kd.Match, attrNode(at, "match"))
		l.keyClass[kd.Name] = cls
		l.evalExpr(kd.Use, cls, cls, attrNode(at, "use"))
	}
}

func (l *ssLint) walkGlobalDecls() {
	for _, n := range l.root.Elements() {
		if !isXSL(n, "variable") && !isXSL(n, "param") {
			continue
		}
		if sel := n.GetAttr("select"); sel != nil {
			l.checkExprSrc(sel.Data, docCtx(), docCtx(), sel)
		} else {
			l.walkBody(n, docCtx())
		}
	}
}

func (l *ssLint) walkTemplates() {
	for _, n := range l.root.Elements() {
		if !isXSL(n, "template") {
			continue
		}
		match := n.AttrValue("match")
		name := n.AttrValue("name")
		var cs ctxSet
		switch {
		case match != "":
			pat, err := xpath.CompilePattern(match)
			if err != nil {
				continue // already a compile error
			}
			cs = l.checkPattern(pat, attrNode(n, "match"))
			if name != "" {
				if e, ok := l.entry[name]; ok {
					cs = cs.union(e)
				}
			}
		case name != "":
			if e, ok := l.entry[name]; ok {
				cs = e
			} else {
				cs = unknownCtx()
			}
		default:
			continue
		}
		l.walkBody(n, cs)
	}
}

func (l *ssLint) walkAttrSets() {
	for _, n := range l.root.Elements() {
		if !isXSL(n, "attribute-set") {
			continue
		}
		if use := n.GetAttr("use-attribute-sets"); use != nil {
			l.useAttrSets(use)
		}
		l.walkBody(n, unknownCtx())
	}
}

// walkBody lints the instruction children of parent in context cs.
func (l *ssLint) walkBody(parent *xmldom.Node, cs ctxSet) {
	for _, n := range parent.Children {
		if n.Type != xmldom.ElementNode {
			continue
		}
		if n.URI != xslt.Namespace {
			// Literal result element: every attribute is an AVT.
			for _, a := range n.Attr {
				if a.URI == xmldom.XMLNSNamespace {
					continue
				}
				if a.URI == xslt.Namespace && a.Name == "use-attribute-sets" {
					l.useAttrSets(a)
					continue
				}
				l.checkAVT(a.Data, cs, a)
			}
			l.walkBody(n, cs)
			continue
		}
		switch n.Name {
		case "apply-templates":
			res := l.evalStep(cs, xpath.StepInfo{Axis: xpath.AxisChild, Test: xpath.TestNode}, n)
			if sel := n.GetAttr("select"); sel != nil {
				res = l.checkExprSrc(sel.Data, cs, cs, sel)
			}
			l.walkWithParams(n, cs)
			l.walkSorts(n, res)
		case "call-template":
			if name := n.AttrValue("name"); name != "" {
				l.calledTemplates[name] = true
				if _, ok := l.namedSrc[name]; !ok {
					l.flag(attrNode(n, "name"), SevError, CodeUnknownRef,
						"xsl:call-template references undefined template '%s'", name)
				} else {
					l.mergeEntry(name, cs)
				}
			}
			l.walkWithParams(n, cs)
		case "for-each":
			res := unknownCtx()
			if sel := n.GetAttr("select"); sel != nil {
				res = l.checkExprSrc(sel.Data, cs, cs, sel)
			}
			l.walkSorts(n, res)
			l.walkBody(n, res)
		case "value-of", "copy-of":
			if sel := n.GetAttr("select"); sel != nil {
				l.checkExprSrc(sel.Data, cs, cs, sel)
			}
		case "if", "when":
			if test := n.GetAttr("test"); test != nil {
				l.checkExprSrc(test.Data, cs, cs, test)
			}
			l.walkBody(n, cs)
		case "variable", "param":
			if sel := n.GetAttr("select"); sel != nil {
				l.checkExprSrc(sel.Data, cs, cs, sel)
			} else {
				l.walkBody(n, cs)
			}
		case "attribute", "processing-instruction":
			if name := n.GetAttr("name"); name != nil {
				l.checkAVT(name.Data, cs, name)
			}
			l.walkBody(n, cs)
		case "element":
			if name := n.GetAttr("name"); name != nil {
				l.checkAVT(name.Data, cs, name)
			}
			if use := n.GetAttr("use-attribute-sets"); use != nil {
				l.useAttrSets(use)
			}
			l.walkBody(n, cs)
		case "copy":
			if use := n.GetAttr("use-attribute-sets"); use != nil {
				l.useAttrSets(use)
			}
			l.walkBody(n, cs)
		case "document":
			if href := n.GetAttr("href"); href != nil {
				l.checkAVT(href.Data, cs, href)
			}
			l.walkBody(n, cs)
		case "number":
			if v := n.GetAttr("value"); v != nil {
				l.checkExprSrc(v.Data, cs, cs, v)
			}
		case "sort", "with-param":
			// handled by the owning instruction
		case "text", "apply-imports":
			// no expressions
		default:
			l.walkBody(n, cs)
		}
	}
}

func (l *ssLint) walkSorts(n *xmldom.Node, items ctxSet) {
	for _, c := range n.Elements() {
		if !isXSL(c, "sort") {
			continue
		}
		if sel := c.GetAttr("select"); sel != nil {
			l.checkExprSrc(sel.Data, items, items, sel)
		}
		for _, avtAttr := range []string{"lang", "order", "data-type", "case-order"} {
			if a := c.GetAttr(avtAttr); a != nil {
				l.checkAVT(a.Data, items, a)
			}
		}
	}
}

func (l *ssLint) walkWithParams(n *xmldom.Node, cs ctxSet) {
	for _, c := range n.Elements() {
		if !isXSL(c, "with-param") {
			continue
		}
		if sel := c.GetAttr("select"); sel != nil {
			l.checkExprSrc(sel.Data, cs, cs, sel)
		} else {
			l.walkBody(c, cs)
		}
	}
}

func (l *ssLint) useAttrSets(a *xmldom.Node) {
	for _, name := range strings.Fields(a.Data) {
		if !l.attrSets[name] {
			l.flag(a, SevError, CodeUnknownRef,
				"use-attribute-sets references undefined attribute set '%s'", name)
		}
	}
}

// checkExprSrc compiles one expression attribute and evaluates it
// against the context approximation.
func (l *ssLint) checkExprSrc(src string, cs, cur ctxSet, at pos) ctxSet {
	e, err := xpath.Compile(src)
	if err != nil {
		return unknownCtx() // surfaced as GW001 by xslt.CompileStylesheet
	}
	return l.evalExpr(e, cs, cur, at)
}

// checkAVT checks each {expr} part of an attribute value template, as
// the processor splits it.
func (l *ssLint) checkAVT(src string, cs ctxSet, at pos) {
	for _, e := range xslt.AVTExprs(src) {
		l.evalExpr(e, cs, cs, at)
	}
}

// evalExpr walks one compiled expression, checking steps, key and
// function references, and returns the approximation of its node-set
// value (unknown for non-node-set expressions).
func (l *ssLint) evalExpr(e xpath.Expr, cs, cur ctxSet, at pos) ctxSet {
	if e == nil {
		return unknownCtx()
	}
	if _, ok := xpath.LiteralValue(e); ok {
		return unknownCtx()
	}
	if input, absolute, steps, ok := xpath.PathInfo(e); ok {
		var in ctxSet
		switch {
		case absolute:
			in = docCtx()
		case input != nil:
			in = l.evalExpr(input, cs, cur, at)
		default:
			in = cs
		}
		for _, st := range steps {
			in = l.evalStep(in, st, at)
			for _, p := range st.Preds {
				l.evalExpr(p, in, cur, at)
			}
		}
		return in
	}
	if primary, preds, ok := xpath.FilterInfo(e); ok {
		out := l.evalExpr(primary, cs, cur, at)
		for _, p := range preds {
			l.evalExpr(p, out, cur, at)
		}
		return out
	}
	if name, args, ok := xpath.CallInfo(e); ok {
		for _, a := range args {
			l.evalExpr(a, cs, cur, at)
		}
		switch name {
		case "current":
			return cur
		case "id":
			return elemCtx(l.g.IDElements())
		case "key":
			if len(args) > 0 {
				if k, isLit := xpath.LiteralValue(args[0]); isLit {
					if cls, declared := l.keyClass[k]; declared {
						return cls
					}
					l.flag(at, SevError, CodeUnknownKey,
						"key('%s', …) references a key no xsl:key declares", k)
				}
			}
			return unknownCtx()
		}
		if !xslt.FunctionAvailable(name) {
			l.flag(at, SevError, CodeUnknownFunc, "unknown function '%s()'", name)
		}
		return unknownCtx()
	}
	if subs := xpath.Subexprs(e); subs != nil {
		var out ctxSet
		for i, s := range subs {
			r := l.evalExpr(s, cs, cur, at)
			if i == 0 {
				out = r
			} else {
				out = out.union(r)
			}
		}
		return out
	}
	return unknownCtx()
}

func (l *ssLint) mergeEntry(name string, cs ctxSet) {
	e, ok := l.entry[name]
	if !ok {
		l.entry[name] = cs.clone()
		l.entryStable = false
		return
	}
	if !e.covers(cs) {
		l.entry[name] = e.union(cs)
		l.entryStable = false
	}
}

// reportUnused flags every declaration no compiled reference reads. The
// compiler decides which declaration each $name reads (Bindings), so a
// shadowed or sibling declaration of the same name is judged on its own.
func (l *ssLint) reportUnused() {
	for _, b := range l.sheet.Bindings() {
		switch {
		case b.Refs > 0:
		case b.Param:
			l.flag(b.Src, SevInfo, CodeUnusedParam, "parameter '$%s' is never referenced", b.Name)
		default:
			l.flag(b.Src, SevWarning, CodeUnusedVariable, "variable '$%s' is never referenced", b.Name)
		}
	}
}

func (l *ssLint) checkUnusedNamedTemplates() {
	for _, nt := range l.sheet.NamedTemplates() {
		if l.calledTemplates[nt.Name] {
			continue
		}
		if nt.Src != nil && nt.Src.AttrValue("match") != "" {
			continue // reachable through its match pattern
		}
		l.flag(nt.Src, SevWarning, CodeUnusedTemplate,
			"named template '%s' is never called", nt.Name)
	}
}

func (l *ssLint) checkUnusedModes() {
	referenced := map[string]bool{}
	for _, m := range l.sheet.ReferencedModes() {
		referenced[m] = true
	}
	prog := l.sheet.Program()
	for _, mode := range prog.Modes() {
		if mode == "" || referenced[mode] {
			continue
		}
		for _, r := range prog.ModeEntries(mode) {
			if r.Builtin {
				continue
			}
			l.flag(attrNode(r.Src, "mode"), SevWarning, CodeUnusedMode,
				"mode '%s' is never named by an xsl:apply-templates; this rule never fires", mode)
		}
	}
}

// checkShadowing flags template rules that can never fire because an
// earlier rule in dispatch order matches every node they could match.
// The rules come straight from the compiled program's jump table
// (Program.ModeEntries), so the check reasons about exactly the dispatch
// order the bytecode VM executes.
func (l *ssLint) checkShadowing() {
	prog := l.sheet.Program()
	for _, mode := range prog.Modes() {
		rules := prog.ModeEntries(mode)
		for i, r := range rules {
			if r.Builtin || r.Match == nil {
				continue
			}
			ralts := r.Match.Info()
			if len(ralts) != 1 {
				continue
			}
			for _, e := range rules[:i] {
				if e.Builtin || e.Match == nil || e.Src == r.Src {
					continue
				}
				ealts := e.Match.Info()
				if len(ealts) != 1 || !altCovers(ealts[0], ralts[0]) {
					continue
				}
				l.flag(attrNode(r.Src, "match"), SevWarning, CodeShadowedRule,
					"template rule (match=\"%s\") never fires: the rule at line %d (match=\"%s\") matches first for every node it could match",
					r.Match.String(), e.Src.Line, e.Match.String())
				break
			}
		}
	}
}

// altCovers reports whether pattern alternative ea matches every node
// alternative ra matches. Only the conservatively provable case is
// claimed: ea is a single unpredicated relative step whose node test
// subsumes ra's final step test.
func altCovers(ea, ra xpath.PatternAltInfo) bool {
	if ea.RootOnly {
		return ra.RootOnly
	}
	if ea.ID != "" || ea.Absolute || len(ea.Steps) != 1 {
		return false
	}
	se := ea.Steps[0]
	if len(se.Preds) > 0 {
		return false
	}
	if ra.RootOnly {
		return false
	}
	if ra.ID != "" && len(ra.Steps) == 0 {
		// id('…') patterns match elements.
		return !se.Attr && (se.Test == xpath.TestAnyName || se.Test == xpath.TestNode)
	}
	if len(ra.Steps) == 0 {
		return false
	}
	sr := ra.Steps[len(ra.Steps)-1]
	if se.Attr != sr.Attr {
		return false
	}
	return patternTestCovers(se, sr)
}

func patternTestCovers(se, sr xpath.PatternStepInfo) bool {
	switch se.Test {
	case xpath.TestNode:
		return true
	case xpath.TestAnyName:
		return sr.Test == xpath.TestName || sr.Test == xpath.TestAnyName || sr.Test == xpath.TestNSWildcard
	case xpath.TestNSWildcard:
		return (sr.Test == xpath.TestName || sr.Test == xpath.TestNSWildcard) && sr.Prefix == se.Prefix
	case xpath.TestName:
		return sr.Test == xpath.TestName && sr.Name == se.Name && sr.Prefix == se.Prefix
	case xpath.TestText:
		return sr.Test == xpath.TestText
	case xpath.TestComment:
		return sr.Test == xpath.TestComment
	case xpath.TestPI:
		return sr.Test == xpath.TestPI && (se.PITarget == "" || se.PITarget == sr.PITarget)
	}
	return false
}

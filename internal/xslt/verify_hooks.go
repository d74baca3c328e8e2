package xslt

import (
	"fmt"
	"sort"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// Verification hooks: the read-only bytecode introspection surface the
// static verifier (internal/analysis/verify) decodes Programs through. The
// verifier lives outside this package on purpose — it re-derives the
// VM's invariants (frame balance, side-table bounds, jump validity)
// independently instead of trusting the compiler's own bookkeeping.

// String returns the disassembly mnemonic of the opcode.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NumOpcodes is one past the largest valid Opcode value; operands of an
// Instr whose Op is >= NumOpcodes are meaningless.
const NumOpcodes = int(OpRTFEnd) + 1

// Code returns a copy of the program's instruction stream. The copy is
// the verifier's working image: corruption injected into it (negative
// tests, fuzzing) never reaches the live program.
func (p *Program) Code() []Instr {
	out := make([]Instr, len(p.code))
	copy(out, p.code)
	return out
}

// TableSizes reports the length of every side table of a Program, so a
// decoder can bounds-check operands without access to the tables
// themselves.
type TableSizes struct {
	Segs, Strs, Exprs, AVTs         int
	LitNames, LitAttrs, AVTAttrs    int
	SetLists, VarDecls              int
	ApplySites, ForSites, CallSites int
	ElemSites, CopySites, NumSites  int
	Templates                       int
	// Globals is the size of the global variable region, and Frame the
	// number of slots every variable frame has room for.
	Globals, Frame int
}

// Tables returns the program's side-table sizes.
func (p *Program) Tables() TableSizes {
	return TableSizes{
		Segs: len(p.segs), Strs: len(p.strs), Exprs: len(p.exprs),
		AVTs: len(p.avts), LitNames: len(p.litNames), LitAttrs: len(p.litAttrs),
		AVTAttrs: len(p.avtAttrs), SetLists: len(p.setLists),
		VarDecls: len(p.varDecls), ApplySites: len(p.applySites),
		ForSites: len(p.forSites), CallSites: len(p.callSites),
		ElemSites: len(p.elemSites), CopySites: len(p.copySites),
		NumSites: len(p.numSites), Templates: len(p.tmpls),
		Globals: int(p.globals), Frame: int(p.frame),
	}
}

// DeclSlot returns the variable slot variable declaration i binds.
func (p *Program) DeclSlot(i int) int { return int(p.varDecls[i].slot) }

// Templates returns every lowered template with its entry pc, in entry
// (layout) order: the root prologue and the attribute-set subroutines
// occupy [0, Templates()[0].Entry).
func (p *Program) Templates() []DispatchRule {
	out := make([]DispatchRule, 0, len(p.tmpls))
	for _, pt := range p.tmpls {
		out = append(out, DispatchRule{TemplateRule: pt.t.rule(), Entry: int(pt.entry)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entry < out[j].Entry })
	return out
}

// Rule renders the rule's identity in the format CompileError.Rule uses
// (`template match="fact" mode="toc"`), or "" for the built-in rules.
func (r TemplateRule) Rule() string {
	if r.Builtin {
		return ""
	}
	e := &CompileError{TemplateName: r.Name, TemplateMode: r.Mode}
	if r.Match != nil {
		e.TemplateMatch = r.Match.String()
	}
	return e.Rule()
}

// AttrSetEntries returns the entry pc of every attribute-set subroutine,
// in layout (ascending) order.
func (p *Program) AttrSetEntries() []int {
	out := make([]int, 0, len(p.subs))
	for _, sub := range p.subs {
		out = append(out, int(sub.entry))
	}
	return out
}

// SetListTargets returns the subroutine entry pcs attribute-set list i
// runs, in order.
func (p *Program) SetListTargets(i int) []int {
	out := make([]int, 0, len(p.setLists[i].subs))
	for _, pc := range p.setLists[i].subs {
		out = append(out, int(pc))
	}
	return out
}

// CallTarget returns the resolved entry pc of call site i, or ok=false
// when the named template does not exist (a deferred runtime error, not
// a verification failure).
func (p *Program) CallTarget(i int) (entry int, ok bool) {
	cs := p.callSites[i]
	if cs.t == nil {
		return 0, false
	}
	return int(cs.t.code.entry), true
}

// Output returns the owning stylesheet's xsl:output specification, which
// the result-shape analysis needs to decide whether the HTML content
// model applies.
func (p *Program) Output() OutputSpec { return p.sheet.output }

// Seg returns segment i for event-level decoding (Segment.Replay).
func (p *Program) Seg(i int) *xmldom.Segment { return p.segs[i] }

// StrAt returns string-table entry i.
func (p *Program) StrAt(i int) string { return p.strs[i] }

// LitNameAt returns the (prefix, uri, name) of literal-element name i.
func (p *Program) LitNameAt(i int) (prefix, uri, name string) {
	ln := p.litNames[i]
	return ln.prefix, ln.uri, ln.name
}

// LitAttrAt returns the (prefix, uri, name, value) of static literal
// attribute i.
func (p *Program) LitAttrAt(i int) (prefix, uri, name, value string) {
	la := p.litAttrs[i]
	return la.prefix, la.uri, la.name, la.value
}

// AVTAttrAt returns the (prefix, uri, name) of computed literal
// attribute i; its value is dynamic.
func (p *Program) AVTAttrAt(i int) (prefix, uri, name string) {
	aa := p.avtAttrs[i]
	return aa.prefix, aa.uri, aa.name
}

// AVTStatic returns the constant value of AVT-table entry i when it is
// expression-free (ok=false for computed templates). Used to recover the
// static names of xsl:attribute / xsl:processing-instruction sites.
func (p *Program) AVTStatic(i int) (string, bool) { return staticAVT(p.avts[i]) }

// ElemSiteStatic returns the constant name of xsl:element site i when
// its name AVT is expression-free.
func (p *Program) ElemSiteStatic(i int) (string, bool) {
	return staticAVT(p.elemSites[i].name)
}

// Exprs returns every compiled XPath expression the program can
// evaluate at run time: the expression side table plus the selects,
// sort keys, AVT parts and declaration selects held in site payloads,
// the predicates of template and xsl:key match patterns, and the xsl:key
// use expressions. The IR verifier proves each one's
// operand-stack plan sound.
func (p *Program) Exprs() []*xpath.Compiled {
	c := &exprCollector{seen: map[*xpath.Compiled]bool{}}
	for _, x := range p.exprs {
		c.add(x)
	}
	for _, a := range p.avts {
		c.avt(a)
	}
	for _, aa := range p.avtAttrs {
		c.avt(aa.value)
	}
	for _, es := range p.elemSites {
		c.avt(es.name)
	}
	for _, d := range p.varDecls {
		c.add(d.sel)
	}
	for _, site := range p.applySites {
		c.add(site.sel)
		c.sorts(site.sorts)
	}
	for _, site := range p.forSites {
		c.add(site.sel)
		c.sorts(site.sorts)
	}
	for _, ns := range p.numSites {
		c.add(ns.value)
	}
	for _, pt := range p.tmpls {
		c.pattern(pt.t.Match)
	}
	for _, k := range p.sheet.keys {
		c.pattern(k.match)
		c.add(k.use)
	}
	return c.out
}

// exprCollector accumulates distinct compiled expressions from the
// program's side tables.
type exprCollector struct {
	seen map[*xpath.Compiled]bool
	out  []*xpath.Compiled
}

func (c *exprCollector) add(x *xpath.Compiled) {
	if x == nil || c.seen[x] {
		return
	}
	c.seen[x] = true
	c.out = append(c.out, x)
}

func (c *exprCollector) avt(a *avt) {
	if a == nil {
		return
	}
	for _, p := range a.parts {
		c.add(p.expr)
	}
}

// pattern adds the predicates of every step of a match pattern.
func (c *exprCollector) pattern(p *xpath.Pattern) {
	if p == nil {
		return
	}
	for _, alt := range p.Info() {
		for _, st := range alt.Steps {
			for _, pr := range st.Preds {
				c.add(pr.(*xpath.Compiled))
			}
		}
	}
}

func (c *exprCollector) sorts(keys []sortKey) {
	for _, k := range keys {
		c.add(k.sel)
		c.avt(k.dataType)
		c.avt(k.order)
	}
}

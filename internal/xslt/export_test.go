package xslt

import (
	"fmt"
	"strings"

	"goldweb/internal/xmldom"
)

// The disassembly listing of a Program, the golden corpus format of
// testdata/programs.want. It lives in test code: only the golden test
// reads it.

// avtSource reconstructs the {expr}-interleaved source of an attribute
// value template for disassembly.
func avtSource(a *avt) string {
	var b strings.Builder
	for _, p := range a.parts {
		if p.expr == nil {
			b.WriteString(p.lit)
		} else {
			b.WriteByte('{')
			b.WriteString(p.expr.String())
			b.WriteByte('}')
		}
	}
	return b.String()
}

// templateLabel renders a template's identity for disassembly headers.
func templateLabel(t *Template) string {
	var parts []string
	if t.Name != "" {
		parts = append(parts, fmt.Sprintf("name=%q", t.Name))
	}
	if t.Match != nil {
		parts = append(parts, fmt.Sprintf("match=%q", t.Match.String()))
	}
	if t.Mode != "" {
		parts = append(parts, fmt.Sprintf("mode=%q", t.Mode))
	}
	if t.src == nil && t.Match != nil {
		parts = append(parts, "builtin")
	}
	return strings.Join(parts, " ")
}

func qname(prefix, name string) string {
	if prefix != "" {
		return prefix + ":" + name
	}
	return name
}

// String renders a set list for disassembly: the names as written, the
// subroutines they expand to, and the expansion error, if any.
func (sl *setList) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, " [%s] →", strings.Join(sl.names, " "))
	for _, pc := range sl.subs {
		fmt.Fprintf(&b, " %04d", pc)
	}
	if sl.err != "" {
		fmt.Fprintf(&b, " error %q", sl.err)
	}
	return b.String()
}

// Disasm renders the program as a deterministic pc-addressed listing
// with a header line per template body — the golden corpus format of
// testdata/programs.want.
func (p *Program) Disasm() string {
	heads := make(map[int32]string, len(p.tmpls)+len(p.subs))
	for _, pt := range p.tmpls {
		heads[pt.entry] = "template " + templateLabel(pt.t)
	}
	for _, sub := range p.subs {
		heads[sub.entry] = "attribute-set " + sub.name
	}
	var b strings.Builder
	for pc, in := range p.code {
		if head, ok := heads[int32(pc)]; ok {
			fmt.Fprintf(&b, "\n;; %s\n", head)
		}
		fmt.Fprintf(&b, "%04d %s", pc, opcodeNames[in.Op])
		switch in.Op {
		case OpJmp:
			fmt.Fprintf(&b, " %04d", in.A)
		case OpTest:
			fmt.Fprintf(&b, " %s false→%04d", p.exprs[in.A].String(), in.B)
		case OpSeg:
			fmt.Fprintf(&b, " #%d %s", in.A, segmentSummary(p.segs[in.A]))
		case OpText:
			fmt.Fprintf(&b, " %q", p.strs[in.A])
			if in.B != 0 {
				b.WriteString(" raw")
			}
		case OpValueOf:
			fmt.Fprintf(&b, " %s", p.exprs[in.A].String())
			if in.B != 0 {
				b.WriteString(" raw")
			}
		case OpLitBegin:
			ln := p.litNames[in.A]
			fmt.Fprintf(&b, " <%s>", qname(ln.prefix, ln.name))
		case OpAttrSets:
			b.WriteString(p.setLists[in.A].String())
		case OpLitAttr:
			la := p.litAttrs[in.A]
			fmt.Fprintf(&b, " %s=%q", qname(la.prefix, la.name), la.value)
		case OpAVTAttr:
			aa := p.avtAttrs[in.A]
			fmt.Fprintf(&b, " %s=%q", qname(aa.prefix, aa.name), avtSource(aa.value))
		case OpApply:
			site := p.applySites[in.A]
			if site.self {
				b.WriteString(" self")
			} else if site.sel != nil {
				fmt.Fprintf(&b, " select=%s", site.sel.String())
			} else {
				b.WriteString(" children")
			}
			if site.mode != "" {
				fmt.Fprintf(&b, " mode=%q", site.mode)
			}
			if len(site.sorts) > 0 {
				fmt.Fprintf(&b, " sorts=%d", len(site.sorts))
			}
			if int(in.B) != pc+1 {
				fmt.Fprintf(&b, " iterate→%04d", in.B)
			}
		case OpIterate:
			fmt.Fprintf(&b, " exit→%04d", in.B)
		case OpForEach:
			site := p.forSites[in.A]
			fmt.Fprintf(&b, " select=%s", site.sel.String())
			if len(site.sorts) > 0 {
				fmt.Fprintf(&b, " sorts=%d", len(site.sorts))
			}
		case OpForNext:
			fmt.Fprintf(&b, " exit→%04d", in.B)
		case OpForEnd:
			fmt.Fprintf(&b, " loop→%04d", in.A)
		case OpCall, OpInvoke:
			cs := p.callSites[in.A]
			fmt.Fprintf(&b, " %q", cs.name)
			if cs.t != nil {
				fmt.Fprintf(&b, " entry→%04d", cs.t.entryPC)
			} else {
				b.WriteString(" unresolved")
			}
		case OpEnter:
			pt := p.tmpls[in.A]
			fmt.Fprintf(&b, " %s", templateLabel(pt.t))
			if n := len(pt.t.params); n > 0 {
				fmt.Fprintf(&b, " params=%d", n)
			}
			if pt.frame > 0 {
				fmt.Fprintf(&b, " frame=%d", pt.frame)
			}
		case OpVarDecl:
			d := p.varDecls[in.A]
			if d.sel != nil {
				fmt.Fprintf(&b, " $%s select=%s", d.name, d.sel.String())
			} else {
				fmt.Fprintf(&b, " $%s empty", d.name)
			}
			fmt.Fprintf(&b, " →slot %d", d.slot)
		case OpRTFEnd:
			fmt.Fprintf(&b, " $%s →slot %d", p.varDecls[in.A].name, p.varDecls[in.A].slot)
		case OpParam, OpGlobalParam:
			fmt.Fprintf(&b, " $%s →slot %d skip→%04d", p.varDecls[in.A].name, p.varDecls[in.A].slot, in.B)
		case OpElemBegin:
			fmt.Fprintf(&b, " name=%q", avtSource(p.elemSites[in.A].name))
		case OpAttrBegin, OpPIBegin:
			fmt.Fprintf(&b, " %q", avtSource(p.avts[in.A]))
		case OpDocBegin:
			fmt.Fprintf(&b, " %q", avtSource(p.avts[in.A]))
			if in.B != 0 {
				fmt.Fprintf(&b, " skip→%04d", in.B)
			}
		case OpMsgEnd:
			if in.A != 0 {
				b.WriteString(" terminate")
			}
		case OpCopyBegin:
			if li := p.copySites[in.A]; li >= 0 {
				b.WriteString(p.setLists[li].String())
			}
			fmt.Fprintf(&b, " leaf→%04d", in.B)
		case OpCopyOf:
			fmt.Fprintf(&b, " %s", p.exprs[in.A].String())
		case OpNumber:
			ns := p.numSites[in.A]
			if ns.value != nil {
				fmt.Fprintf(&b, " value=%s", ns.value.String())
			}
			fmt.Fprintf(&b, " format=%q", ns.format)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// segmentSummary renders a compact one-line description of a recorded
// segment's top-level content: elements by name, text abbreviated.
func segmentSummary(seg *xmldom.Segment) string {
	var e summaryEmitter
	seg.Replay(&e)
	return e.b.String()
}

// summaryEmitter writes the top-level events it receives.
type summaryEmitter struct {
	b     strings.Builder
	depth int
}

func (e *summaryEmitter) BeginElement(prefix, uri, name string) {
	if e.depth == 0 {
		e.b.WriteString("<" + qname(prefix, name) + ">")
	}
	e.depth++
}

func (e *summaryEmitter) Attr(prefix, uri, name, value string) bool { return true }
func (e *summaryEmitter) EndElement()                               { e.depth-- }
func (e *summaryEmitter) CopyTree(n *xmldom.Node)                   {}
func (e *summaryEmitter) OpenElement() bool                         { return e.depth > 0 }

func (e *summaryEmitter) Text(data string, raw bool) {
	if e.depth == 0 {
		e.b.WriteString(compactText(data))
	}
}

func (e *summaryEmitter) Comment(data string) {
	if e.depth == 0 {
		e.b.WriteString("<!---->")
	}
}

func (e *summaryEmitter) PI(name, data string) {
	if e.depth == 0 {
		e.b.WriteString("<?" + name + "?>")
	}
}

// compactText abbreviates a text run for display.
func compactText(s string) string {
	if strings.TrimSpace(s) == "" {
		return "␣"
	}
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 24 {
		s = s[:21] + "..."
	}
	return s
}

// Package verify is the static verification layer for the compiled
// execution artifacts: the stylesheet bytecode (xslt.Program) and the
// XPath instruction IR (xpath.Compiled). Where internal/analysis checks
// what a stylesheet *means* against the schema, this package checks
// that what the compilers *emitted* is safe to run — every jump lands
// on a real instruction, every side-table index and variable slot is in
// bounds, the control-frame stack balances along every path, the jump
// tables agree
// with the dispatch index, and the planner's operand-stack bounds hold
// — plus a result-shape analysis (shape.go) that abstractly interprets
// the emit opcodes against the serializer's HTML content model.
//
// The verifier re-derives the VM's invariants from opcode semantics
// alone, through the read-only introspection surface of
// xslt/verify_hooks.go; it shares no bookkeeping with the compiler, so
// a lowering bug cannot vouch for itself. Findings carry GW5xx codes
// and surface through `goldweb lint`.
package verify

import (
	"fmt"
	"sort"

	"goldweb/internal/xmldom"
	"goldweb/internal/xslt"
)

// Diagnostic codes of the verification layer. GW501 and GW506 are
// safety-net codes: a healthy compiler never produces them, and the
// negative corpus in verify_test.go proves each corruption class is
// caught. GW502–GW505 are the result-shape lints (shape.go) and do
// fire on real stylesheets.
const (
	// CodeBadProgram: a structural fault in compiled bytecode or IR —
	// bad jump target, side-table index out of range, unbalanced control
	// frames, jump-table inconsistency, or an unsound stack plan.
	CodeBadProgram = "GW501"
	// CodeAttrAfterContent: an attribute is emitted after child content
	// of the same element; the serializer relocates it, but per XSLT 1.0
	// §7.1.3 the construction is erroneous.
	CodeAttrAfterContent = "GW502"
	// CodeDuplicateAttr: the same attribute name is definitely emitted
	// twice on one element; the second silently overwrites the first.
	CodeDuplicateAttr = "GW503"
	// CodeVoidContent: an HTML void element (br, img, link, ...) is
	// given children; the html serializer emits no end tag, so the
	// children produce invalid markup.
	CodeVoidContent = "GW504"
	// CodeRawTextHazard: content inside an HTML raw-text element
	// (script, style) that the unescaped serialization mis-handles —
	// a child element, or text containing "</".
	CodeRawTextHazard = "GW505"
	// CodeUnreachableCode: instructions no entry point can reach.
	CodeUnreachableCode = "GW506"
)

// Finding is one verification result. PC anchors it in the program;
// Rule and Src identify the owning template when the pc falls inside a
// lowered template body.
type Finding struct {
	Code    string
	Msg     string
	PC      int
	Rule    string       // owning template label ("" for the root prologue)
	Src     *xmldom.Node // owning xsl:template element, nil for prologue/built-ins
	Warning bool         // severity hint: true = warning, false = error
}

func (f Finding) String() string {
	sev := "error"
	if f.Warning {
		sev = "warning"
	}
	return fmt.Sprintf("%s %s: pc %04d: %s", sev, f.Code, f.PC, f.Msg)
}

// Image is a detached, mutable decoding of a compiled Program: the
// instruction stream plus everything the structural checks need,
// copied out of the live program. The negative corpus and the fuzz
// target corrupt Images; Check never touches the Program itself.
type Image struct {
	Code   []xslt.Instr
	Tables xslt.TableSizes
	// Entries are the template and attribute-set subroutine entry pcs,
	// ascending.
	Entries []int
	// CallTargets holds the resolved entry pc of each call site, or -1
	// for an unresolved name (a deferred runtime error, not a fault).
	CallTargets []int
	// SetLists holds the subroutine entry pcs each attribute-set list
	// runs.
	SetLists [][]int
	// DeclSlots holds the variable slot of each variable declaration.
	DeclSlots []int
}

// Capture decodes a program into an Image.
func Capture(p *xslt.Program) *Image {
	im := &Image{Code: p.Code(), Tables: p.Tables()}
	for _, t := range p.Templates() {
		im.Entries = append(im.Entries, t.Entry)
	}
	im.Entries = append(im.Entries, p.AttrSetEntries()...)
	sort.Ints(im.Entries)
	for i := 0; i < im.Tables.SetLists; i++ {
		im.SetLists = append(im.SetLists, p.SetListTargets(i))
	}
	im.DeclSlots = make([]int, im.Tables.VarDecls)
	for i := range im.DeclSlots {
		im.DeclSlots[i] = p.DeclSlot(i)
	}
	im.CallTargets = make([]int, im.Tables.CallSites)
	for i := range im.CallTargets {
		if entry, ok := p.CallTarget(i); ok {
			im.CallTargets[i] = entry
		} else {
			im.CallTargets[i] = -1
		}
	}
	return im
}

// Control-frame kinds of the abstract balance interpretation. Distinct
// letters per capture construct make the check stricter than the VM,
// which folds attribute/comment/PI/message/fragment captures into one
// kind. frRoot and frParams are pseudo-frames: the walk from pc 0 runs
// on frRoot, so only the root prologue binds global parameters, and a
// template's OpEnter opens frParams until OpParamsEnd, so a parameter
// binds only while the frame that entered the template is on top.
const (
	frRoot    = 'G'
	frParams  = 'P'
	frApply   = 'A'
	frCall    = 'C'
	frFor     = 'F'
	frAttr    = 'a'
	frComment = 'c'
	frPI      = 'p'
	frMsg     = 'm'
	frRTF     = 'r'
	frDoc     = 'D'
)

// Check runs every structural verification over the image: opcode
// validity, operand bounds, jump-target validity, control-frame balance
// along all paths, call-target sanity, and unreachable-code detection.
// A healthy compiler output returns nil findings.
func (im *Image) Check() []Finding {
	var out []Finding
	bad := func(pc int, format string, args ...interface{}) {
		out = append(out, Finding{Code: CodeBadProgram, PC: pc, Msg: fmt.Sprintf(format, args...)})
	}
	n := len(im.Code)
	if n == 0 {
		bad(0, "empty program")
		return out
	}

	// Pass 1: per-instruction operand and jump-target bounds, and
	// attribute-set lists that must run subroutines, not templates.
	for pc, in := range im.Code {
		if int(in.Op) >= xslt.NumOpcodes {
			bad(pc, "invalid opcode %d", in.Op)
			continue
		}
		checkOperands(im, pc, in, bad)
	}
	for i, targets := range im.SetLists {
		for _, t := range targets {
			if t < 0 || t >= n || !isEntry(im.Entries, t) || im.Code[t].Op == xslt.OpEnter {
				bad(0, "attribute-set list %d targets %d, which is not a subroutine entry", i, t)
			}
		}
	}
	if len(out) > 0 {
		// Bounds faults make the flow walk meaningless (and unsafe to
		// decode); report them alone.
		return out
	}

	// Pass 2: control-frame balance along all paths, from the root
	// prologue (on frRoot) and every template entry (on an empty stack).
	state := make(map[int]string, n)
	type edge struct {
		pc int
		st string
	}
	var work []edge
	visit := func(pc int, st string, from int) {
		if pc < 0 || pc >= n {
			return // bounds pass already validated targets
		}
		if have, ok := state[pc]; ok {
			if have != st {
				bad(from, "frame stack mismatch entering pc %04d: [%s] vs [%s]", pc, st, have)
			}
			return
		}
		state[pc] = st
		work = append(work, edge{pc, st})
	}
	root := string(rune(frRoot))
	visit(0, root, 0)
	for _, e := range im.Entries {
		visit(e, "", e)
	}
	for len(work) > 0 {
		e := work[len(work)-1]
		work = work[:len(work)-1]
		pc, st := e.pc, e.st
		in := im.Code[pc]
		top := byte(0)
		if len(st) > 0 {
			top = st[len(st)-1]
		}
		needTop := func(kind byte, what string) bool {
			if top != kind {
				bad(pc, "%s with frame stack [%s] (want top %c)", what, st, kind)
				return false
			}
			return true
		}
		switch in.Op {
		case xslt.OpHalt:
			if st != root {
				bad(pc, "halt with unbalanced frame stack [%s] (want [%s])", st, root)
			}
		case xslt.OpRet:
			if st != "" {
				bad(pc, "ret with unbalanced frame stack [%s]", st)
			}
		case xslt.OpJmp:
			visit(int(in.A), st, pc)
		case xslt.OpTest:
			visit(pc+1, st, pc)
			visit(int(in.B), st, pc)
		case xslt.OpApply:
			// Operand b is the loop's iterate; the with-param code between
			// binds into the apply frame.
			if it := im.Code[in.B]; it.Op != xslt.OpIterate || it.A != in.A {
				bad(pc, "apply's iterate %04d is not its iterate", in.B)
				break
			}
			visit(pc+1, st+string(rune(frApply)), pc)
		case xslt.OpIterate:
			if needTop(frApply, "iterate") {
				// The dispatch edge into a template entry is
				// interprocedural (the callee returns here via ret); the
				// only intraprocedural successor is the exit.
				visit(int(in.B), st[:len(st)-1], pc)
			}
		case xslt.OpForEach:
			if pc+1 >= n || im.Code[pc+1].Op != xslt.OpForNext {
				bad(pc, "for-each not followed by for-next")
				break
			}
			visit(pc+1, st+string(rune(frFor)), pc)
		case xslt.OpForNext:
			if needTop(frFor, "for-next") {
				visit(pc+1, st, pc)
				visit(int(in.B), st[:len(st)-1], pc)
			}
		case xslt.OpForEnd:
			if im.Code[in.A].Op != xslt.OpForNext {
				bad(pc, "for-end loops to %04d, which is %s, not for-next", in.A, im.Code[in.A].Op)
				break
			}
			visit(int(in.A), st, pc)
		case xslt.OpCall:
			visit(pc+1, st+string(rune(frCall)), pc)
		case xslt.OpInvoke:
			if t := im.CallTargets[in.A]; t >= 0 {
				if t >= n || im.Code[t].Op != xslt.OpEnter {
					bad(pc, "call target %04d is not a template entry", t)
				}
			}
			if needTop(frCall, "invoke") {
				visit(pc+1, st[:len(st)-1], pc)
			}
		case xslt.OpApplyImports:
			visit(pc+1, st, pc)
		case xslt.OpEnter:
			if !isEntry(im.Entries, pc) {
				bad(pc, "enter at a pc that is not a registered template entry")
			}
			if in.B != 0 {
				visit(pc+1, st+string(rune(frParams)), pc)
			} else {
				visit(pc+1, st, pc)
			}
		case xslt.OpParam:
			// The VM reads the passed value through the top control
			// frame, which must be the one that entered the template.
			if needTop(frParams, "param") {
				visit(pc+1, st, pc)
				visit(int(in.B), st, pc)
			}
		case xslt.OpParamsEnd:
			if needTop(frParams, "params-end") {
				visit(pc+1, st[:len(st)-1], pc)
			}
		case xslt.OpGlobalParam:
			// Global slots are the current frame only in the root
			// prologue.
			if needTop(frRoot, "global-param") {
				visit(pc+1, st, pc)
				visit(int(in.B), st, pc)
			}
		case xslt.OpRTFBegin:
			visit(pc+1, st+string(rune(frRTF)), pc)
		case xslt.OpRTFEnd:
			if needTop(frRTF, "rtf-end") {
				visit(pc+1, st[:len(st)-1], pc)
			}
		case xslt.OpAttrBegin:
			visit(pc+1, st+string(rune(frAttr)), pc)
		case xslt.OpAttrEnd:
			if needTop(frAttr, "attr-end") {
				visit(pc+1, st[:len(st)-1], pc)
			}
		case xslt.OpCommentBegin:
			visit(pc+1, st+string(rune(frComment)), pc)
		case xslt.OpCommentEnd:
			if needTop(frComment, "comment-end") {
				visit(pc+1, st[:len(st)-1], pc)
			}
		case xslt.OpPIBegin:
			visit(pc+1, st+string(rune(frPI)), pc)
		case xslt.OpPIEnd:
			if needTop(frPI, "pi-end") {
				visit(pc+1, st[:len(st)-1], pc)
			}
		case xslt.OpMsgBegin:
			visit(pc+1, st+string(rune(frMsg)), pc)
		case xslt.OpMsgEnd:
			if needTop(frMsg, "msg-end") {
				visit(pc+1, st[:len(st)-1], pc)
			}
		case xslt.OpDocBegin:
			visit(pc+1, st+string(rune(frDoc)), pc)
			if in.B != 0 {
				// Doc skip: a targeted run jumps past the body, leaving
				// the frame stack as it was.
				if im.Code[in.B-1].Op != xslt.OpDocEnd {
					bad(pc, "doc skip %04d does not land just past a doc-end", in.B)
					break
				}
				visit(int(in.B), st, pc)
			}
		case xslt.OpDocEnd:
			if needTop(frDoc, "doc-end") {
				visit(pc+1, st[:len(st)-1], pc)
			}
		case xslt.OpCopyBegin:
			visit(pc+1, st, pc)
			visit(int(in.B), st, pc) // leaf-node skip
		default:
			// Plain emit opcodes fall through.
			visit(pc+1, st, pc)
		}
	}

	// Pass 3: unreachable-opcode detection, reported per contiguous run.
	for pc := 0; pc < n; {
		if _, ok := state[pc]; ok {
			pc++
			continue
		}
		end := pc
		for end < n {
			if _, ok := state[end]; ok {
				break
			}
			end++
		}
		out = append(out, Finding{
			Code: CodeUnreachableCode, PC: pc, Warning: true,
			Msg: fmt.Sprintf("instructions %04d..%04d are unreachable from every entry point", pc, end-1),
		})
		pc = end
	}
	return out
}

// checkOperands validates one instruction's operands against the
// side-table sizes and the code bounds, and the slot a declaration binds
// against the variable frame: a local or with-param slot must lie in the
// frame every entry makes room for, a global parameter's in the global
// region.
func checkOperands(im *Image, pc int, in xslt.Instr, bad func(int, string, ...interface{})) {
	n := len(im.Code)
	idx := func(what string, got int32, size int) bool {
		if int(got) < 0 || int(got) >= size {
			bad(pc, "%s: %s index %d out of range [0,%d)", in.Op, what, got, size)
			return false
		}
		return true
	}
	slot := func(decl int32, size int) {
		if idx("var decl", decl, min(im.Tables.VarDecls, len(im.DeclSlots))) {
			idx("slot", int32(im.DeclSlots[decl]), size)
		}
	}
	jump := func(what string, got int32) {
		if int(got) < 0 || int(got) >= n {
			bad(pc, "%s: %s target %d outside [0,%d)", in.Op, what, got, n)
		}
	}
	t := im.Tables
	switch in.Op {
	case xslt.OpJmp:
		jump("jump", in.A)
	case xslt.OpTest:
		idx("expr", in.A, t.Exprs)
		jump("false-branch", in.B)
	case xslt.OpSeg:
		idx("segment", in.A, t.Segs)
	case xslt.OpText:
		idx("string", in.A, t.Strs)
	case xslt.OpValueOf, xslt.OpCopyOf:
		idx("expr", in.A, t.Exprs)
	case xslt.OpLitBegin:
		idx("literal name", in.A, t.LitNames)
	case xslt.OpAttrSets:
		idx("attribute-set list", in.A, t.SetLists)
	case xslt.OpLitAttr:
		idx("literal attr", in.A, t.LitAttrs)
	case xslt.OpAVTAttr:
		idx("avt attr", in.A, t.AVTAttrs)
	case xslt.OpApply:
		idx("apply site", in.A, t.ApplySites)
		jump("iterate", in.B)
	case xslt.OpIterate:
		idx("apply site", in.A, t.ApplySites)
		jump("exit", in.B)
	case xslt.OpForEach:
		idx("for site", in.A, t.ForSites)
	case xslt.OpForNext:
		jump("exit", in.B)
	case xslt.OpForEnd:
		jump("loop head", in.A)
	case xslt.OpCall, xslt.OpInvoke:
		idx("call site", in.A, t.CallSites)
	case xslt.OpEnter, xslt.OpParamsEnd:
		idx("template", in.A, t.Templates)
	case xslt.OpVarDecl, xslt.OpRTFEnd:
		slot(in.A, t.Frame)
	case xslt.OpParam:
		slot(in.A, t.Frame)
		jump("default skip", in.B)
	case xslt.OpGlobalParam:
		slot(in.A, t.Globals)
		jump("default skip", in.B)
	case xslt.OpElemBegin:
		idx("elem site", in.A, t.ElemSites)
	case xslt.OpAttrBegin, xslt.OpPIBegin:
		idx("avt", in.A, t.AVTs)
	case xslt.OpDocBegin:
		idx("avt", in.A, t.AVTs)
		if in.B != 0 {
			jump("doc skip", in.B)
		}
	case xslt.OpCopyBegin:
		idx("copy site", in.A, t.CopySites)
		jump("leaf skip", in.B)
	case xslt.OpNumber:
		idx("number site", in.A, t.NumSites)
	}
}

func isEntry(entries []int, pc int) bool {
	i := sort.SearchInts(entries, pc)
	return i < len(entries) && entries[i] == pc
}

// Program runs the full verification of a compiled program: the
// structural image checks, jump-table consistency against the per-mode
// dispatch index, and the IR verification of every reachable compiled
// expression. Findings are annotated with the owning template.
func Program(p *xslt.Program) []Finding {
	im := Capture(p)
	out := im.Check()

	// Jump-table (ModeEntries) consistency: every dispatch entry must be
	// a registered template entry pc holding an enter instruction, and
	// entries must be in dispatch order — import precedence, then
	// priority, non-increasing.
	code := im.Code
	for _, mode := range p.Modes() {
		entries := p.ModeEntries(mode)
		for i, r := range entries {
			if r.Entry < 0 || r.Entry >= len(code) || code[r.Entry].Op != xslt.OpEnter || !isEntry(im.Entries, r.Entry) {
				out = append(out, Finding{Code: CodeBadProgram, PC: r.Entry,
					Msg: fmt.Sprintf("mode %q: dispatch entry %d does not target a template entry", mode, r.Entry)})
			}
			if i > 0 {
				prev := entries[i-1]
				if prev.ImportPrec < r.ImportPrec ||
					(prev.ImportPrec == r.ImportPrec && prev.Priority < r.Priority) {
					out = append(out, Finding{Code: CodeBadProgram, PC: r.Entry,
						Msg: fmt.Sprintf("mode %q: dispatch entries out of precedence order at #%d", mode, i)})
				}
			}
		}
	}

	// IR verification: every compiled expression the program can reach,
	// with the slots its variable references read.
	for _, x := range p.Exprs() {
		if err := x.VerifyIR(); err != nil {
			out = append(out, Finding{Code: CodeBadProgram, Msg: err.Error()})
			continue
		}
		if g, l := x.SlotExtent(); g > im.Tables.Globals || l > im.Tables.Frame {
			out = append(out, Finding{Code: CodeBadProgram, Msg: fmt.Sprintf(
				"%s reads global slots below %d and local slots below %d, outside the %d global and %d frame slots",
				x, g, l, im.Tables.Globals, im.Tables.Frame)})
		}
	}

	attachOwners(p, out)
	return out
}

// Stats reports the verification surface of a program: instruction and
// distinct-expression counts, for the -verify summary of `goldweb lint`.
func Stats(p *xslt.Program) (ops, exprs int) {
	return len(p.Code()), len(p.Exprs())
}

// attachOwners annotates findings with the template whose body contains
// their pc.
func attachOwners(p *xslt.Program, fs []Finding) {
	tmpls := p.Templates()
	for i := range fs {
		pc := fs[i].PC
		var owner *xslt.DispatchRule
		for j := range tmpls {
			if tmpls[j].Entry <= pc {
				owner = &tmpls[j]
			} else {
				break
			}
		}
		if owner != nil {
			fs[i].Rule = owner.Rule()
			fs[i].Src = owner.Src
		}
	}
}

package verify_test

import (
	"strings"
	"testing"

	"goldweb/internal/analysis/verify"
	"goldweb/internal/core"
	"goldweb/internal/xslt"
)

func compile(t *testing.T, src string) *xslt.Program {
	t.Helper()
	s, err := xslt.CompileStylesheetString(src, xslt.CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return s.Program()
}

// corpusSrc exercises every frame construct the balance walk tracks:
// apply/iterate, for-each, test branches, scopes, attribute and comment
// captures, copy, a named-template call, and a leaf xsl:document whose
// begin carries a doc-skip operand.
const corpusSrc = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="html"/>
  <xsl:template match="/">
    <div>
      <xsl:attribute name="id">top</xsl:attribute>
      <xsl:if test="item"><p><xsl:value-of select="."/></p></xsl:if>
      <xsl:for-each select="item">
        <xsl:variable name="v" select="position()"/>
        <li><xsl:value-of select="$v"/></li>
      </xsl:for-each>
      <xsl:comment>done</xsl:comment>
      <xsl:copy><xsl:apply-templates/></xsl:copy>
      <xsl:call-template name="aux"/>
    </div>
    <xsl:document href="side.html"><p>side</p></xsl:document>
  </xsl:template>
  <xsl:template name="aux"><span>aux</span></xsl:template>
  <xsl:template match="item"><em><xsl:value-of select="."/></em></xsl:template>
</xsl:stylesheet>`

func findOp(t *testing.T, code []xslt.Instr, op xslt.Opcode) int {
	t.Helper()
	for pc, in := range code {
		if in.Op == op {
			return pc
		}
	}
	t.Fatalf("no %s instruction in program", op)
	return -1
}

func requireFinding(t *testing.T, fs []verify.Finding, code, substr string) {
	t.Helper()
	for _, f := range fs {
		if f.Code == code && strings.Contains(f.Msg, substr) {
			return
		}
	}
	t.Fatalf("no %s finding containing %q; got %v", code, substr, fs)
}

func requireNone(t *testing.T, fs []verify.Finding, code string) {
	t.Helper()
	for _, f := range fs {
		if f.Code == code {
			t.Fatalf("unexpected %s finding: %s", code, f.Msg)
		}
	}
}

// TestBuiltinStylesheetsVerifyClean is the headline acceptance check:
// the stylesheets every publish runs through must verify clean, program
// structure, IR and result shape alike.
func TestBuiltinStylesheetsVerifyClean(t *testing.T) {
	for name, src := range map[string]string{"single.xsl": core.SingleXSL, "multi.xsl": core.MultiXSL} {
		p := compile(t, src)
		if fs := verify.Program(p); len(fs) != 0 {
			t.Errorf("%s: program verifier: %v", name, fs)
		}
		if fs := verify.Shape(p); len(fs) != 0 {
			t.Errorf("%s: shape analysis: %v", name, fs)
		}
		ops, exprs := verify.Stats(p)
		if ops == 0 || exprs == 0 {
			t.Errorf("%s: implausible stats ops=%d exprs=%d", name, ops, exprs)
		}
	}
}

func TestCorpusProgramVerifiesClean(t *testing.T) {
	p := compile(t, corpusSrc)
	if fs := verify.Program(p); len(fs) != 0 {
		t.Fatalf("expected clean verification, got %v", fs)
	}
}

// The negative corpus: each hand-seeded corruption class must be caught
// with its specific diagnostic.

func TestCorruptJumpTarget(t *testing.T) {
	im := verify.Capture(compile(t, corpusSrc))
	pc := findOp(t, im.Code, xslt.OpTest)
	im.Code[pc].B = 9999
	requireFinding(t, im.Check(), verify.CodeBadProgram, "false-branch target 9999")
}

func TestCorruptDocSkip(t *testing.T) {
	im := verify.Capture(compile(t, corpusSrc))
	pc := findOp(t, im.Code, xslt.OpDocBegin)
	if im.Code[pc].B == 0 {
		t.Fatal("leaf xsl:document has no doc-skip operand")
	}
	im.Code[pc].B-- // onto the doc-end instead of past it
	requireFinding(t, im.Check(), verify.CodeBadProgram, "does not land just past a doc-end")
	im.Code[pc].B = 9999
	requireFinding(t, im.Check(), verify.CodeBadProgram, "doc skip target 9999")
}

func TestCorruptSideTableIndex(t *testing.T) {
	im := verify.Capture(compile(t, corpusSrc))
	pc := findOp(t, im.Code, xslt.OpValueOf)
	im.Code[pc].A = 9999
	requireFinding(t, im.Check(), verify.CodeBadProgram, "expr index 9999 out of range")
}

func TestCorruptUnbalancedFrame(t *testing.T) {
	im := verify.Capture(compile(t, corpusSrc))
	// Sever an attribute capture's end: the frame stays open all the way
	// to the template's ret.
	pc := findOp(t, im.Code, xslt.OpAttrEnd)
	im.Code[pc] = xslt.Instr{Op: xslt.OpEndElem}
	requireFinding(t, im.Check(), verify.CodeBadProgram, "unbalanced frame stack")
}

func TestCorruptFrameKindMismatch(t *testing.T) {
	im := verify.Capture(compile(t, corpusSrc))
	// A comment-end closing an attribute capture is a kind mismatch even
	// though the VM folds both into one capture frame.
	pc := findOp(t, im.Code, xslt.OpAttrEnd)
	im.Code[pc] = xslt.Instr{Op: xslt.OpCommentEnd}
	requireFinding(t, im.Check(), verify.CodeBadProgram, "comment-end with frame stack")
}

func TestCorruptOpcode(t *testing.T) {
	im := verify.Capture(compile(t, corpusSrc))
	im.Code[findOp(t, im.Code, xslt.OpValueOf)].Op = xslt.Opcode(211)
	requireFinding(t, im.Check(), verify.CodeBadProgram, "invalid opcode 211")
}

// paramsSrc exercises the parameter and attribute-set frames: a
// with-param binding into a call frame, a parameter default, and an
// attribute-set list.
const paramsSrc = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:attribute-set name="s"><xsl:attribute name="k">v</xsl:attribute></xsl:attribute-set>
  <xsl:template match="/">
    <e xsl:use-attribute-sets="s"><xsl:call-template name="t"><xsl:with-param name="p" select="1"/></xsl:call-template></e>
  </xsl:template>
  <xsl:template name="t"><xsl:param name="p" select="0"/><xsl:value-of select="$p"/></xsl:template>
</xsl:stylesheet>`

func TestParamsProgramVerifiesClean(t *testing.T) {
	if fs := verify.Program(compile(t, paramsSrc)); len(fs) != 0 {
		t.Fatalf("expected clean verification, got %v", fs)
	}
}

func TestCorruptVarSlot(t *testing.T) {
	im := verify.Capture(compile(t, paramsSrc))
	// A with-param bound to a slot past the frame every entry makes
	// room for.
	pc := findOp(t, im.Code, xslt.OpVarDecl)
	im.DeclSlots[im.Code[pc].A] = im.Tables.Frame
	requireFinding(t, im.Check(), verify.CodeBadProgram, "var: slot index")
}

func TestCorruptGlobalParamSlot(t *testing.T) {
	im := verify.Capture(compile(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:param name="g" select="1"/>
  <xsl:template match="/"><xsl:value-of select="$g"/></xsl:template>
</xsl:stylesheet>`))
	// A global parameter whose slot lies past the global region: its
	// staged value would be read from a template frame.
	pc := findOp(t, im.Code, xslt.OpGlobalParam)
	im.DeclSlots[im.Code[pc].A] = im.Tables.Globals
	requireFinding(t, im.Check(), verify.CodeBadProgram, "global-param: slot index")
}

// forParamSrc has a template whose body runs a for-each, so a corruption
// can put a parameter binding where a for-each frame is on top.
const forParamSrc = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:param name="g" select="1"/>
  <xsl:template match="/"><xsl:apply-templates select="*"><xsl:with-param name="p" select="2"/></xsl:apply-templates></xsl:template>
  <xsl:template match="*"><xsl:param name="p"/><xsl:for-each select="*">x</xsl:for-each><xsl:value-of select="$p"/></xsl:template>
</xsl:stylesheet>`

// forBody returns the pc of the first instruction of the for-each body.
func forBody(t *testing.T, im *verify.Image) int {
	t.Helper()
	return findOp(t, im.Code, xslt.OpForNext) + 1
}

func TestCorruptParamInForEach(t *testing.T) {
	im := verify.Capture(compile(t, forParamSrc))
	// The parameter binding moved into the for-each body: the VM would
	// read the with-param through the for-each frame.
	param := im.Code[findOp(t, im.Code, xslt.OpParam)]
	pc := forBody(t, im)
	im.Code[pc] = xslt.Instr{Op: xslt.OpParam, A: param.A, B: int32(pc + 1)}
	requireFinding(t, im.Check(), verify.CodeBadProgram, "param with frame stack [F]")
}

func TestCorruptGlobalParamInTemplate(t *testing.T) {
	im := verify.Capture(compile(t, forParamSrc))
	// A global parameter bound inside a template would write the
	// template's frame, not the global region.
	param := im.Code[findOp(t, im.Code, xslt.OpGlobalParam)]
	pc := forBody(t, im)
	im.Code[pc] = xslt.Instr{Op: xslt.OpGlobalParam, A: param.A, B: int32(pc + 1)}
	requireFinding(t, im.Check(), verify.CodeBadProgram, "global-param with frame stack [F]")
}

// TestPatternSlotsAreChecked: the predicates of template and key match
// patterns read global slots, so the slot check covers them.
func TestPatternSlotsAreChecked(t *testing.T) {
	const src = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:param name="g" select="1"/>
  <xsl:key name="k" match="b[@n = $g]" use="@id"/>
  <xsl:template match="/"><xsl:apply-templates/></xsl:template>
  <xsl:template match="a[@n = $g]"><xsl:value-of select="key('k', 'x')"/></xsl:template>
</xsl:stylesheet>`
	p := compile(t, src)
	// Each pattern's predicate compiles to its own expression.
	n := 0
	for _, x := range p.Exprs() {
		if x.String() == "(@n = $g)" {
			x.ResolveVars(func(string) (int, bool) { return 99, false })
			n++
		}
	}
	if n != 2 {
		t.Fatalf("program lists %d pattern predicates, want the template's and the key's", n)
	}
	requireFinding(t, verify.Program(p), verify.CodeBadProgram, "reads global slots below 100")
}

func TestCorruptSetListTarget(t *testing.T) {
	im := verify.Capture(compile(t, paramsSrc))
	im.SetLists[0][0] = findOp(t, im.Code, xslt.OpEnter)
	requireFinding(t, im.Check(), verify.CodeBadProgram, "not a subroutine entry")
}

func TestUnreachableCode(t *testing.T) {
	im := &verify.Image{
		Code: []xslt.Instr{
			{Op: xslt.OpJmp, A: 2},
			{Op: xslt.OpText, A: 0},
			{Op: xslt.OpHalt},
		},
		Tables: xslt.TableSizes{Strs: 1},
	}
	fs := im.Check()
	requireFinding(t, fs, verify.CodeUnreachableCode, "0001..0001")
	requireNone(t, fs, verify.CodeBadProgram)
}

func TestEmptyProgram(t *testing.T) {
	im := &verify.Image{}
	requireFinding(t, im.Check(), verify.CodeBadProgram, "empty program")
}

// TestFindingOwners: findings inside a template body are attributed to
// that template's rule.
func TestFindingOwners(t *testing.T) {
	p := compile(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="html"/>
  <xsl:template match="/"><root><xsl:apply-templates/></root></xsl:template>
  <xsl:template match="fact"><br>oops</br></xsl:template>
</xsl:stylesheet>`)
	fs := verify.Shape(p)
	requireFinding(t, fs, verify.CodeVoidContent, "void element")
	for _, f := range fs {
		if f.Code == verify.CodeVoidContent {
			if !strings.Contains(f.Rule, `match="fact"`) {
				t.Fatalf("finding not attributed to its template: rule=%q", f.Rule)
			}
			if f.Src == nil {
				t.Fatal("finding lost its source node")
			}
		}
	}
}

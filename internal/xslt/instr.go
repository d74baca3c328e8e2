package xslt

import (
	"fmt"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// instruction is a compiled XSLT instruction or literal result node: one
// of the i* types below. Stylesheet.lower flattens instruction trees into
// the bytecode program the VM executes.
type instruction any

// avt is a compiled attribute value template: literal text interleaved
// with {expr} parts.
type avt struct {
	parts []avtPart
}

type avtPart struct {
	lit  string
	expr *xpath.Compiled
}

// avtError wraps an expression error from inside an attribute value
// template with the absolute byte offset of the failure in the
// attribute value, so compile-time diagnostics can point at the exact
// column of the broken {expr} part.
type avtError struct {
	Off int
	Err error
}

func (e *avtError) Error() string { return e.Err.Error() }

// compileAVT parses an attribute value template. "{{" and "}}" escape the
// braces.
func compileAVT(src string) (*avt, error) {
	a := &avt{}
	var lit strings.Builder
	for i := 0; i < len(src); {
		c := src[i]
		switch c {
		case '{':
			if i+1 < len(src) && src[i+1] == '{' {
				lit.WriteByte('{')
				i += 2
				continue
			}
			end := strings.IndexByte(src[i+1:], '}')
			if end < 0 {
				return nil, &avtError{Off: i, Err: fmt.Errorf("unterminated { in attribute value template %s", src)}
			}
			exprSrc := src[i+1 : i+1+end]
			e, err := xpath.Compile(exprSrc)
			if err != nil {
				off := i + 1
				if se, ok := err.(*xpath.SyntaxError); ok {
					off += se.Pos
				}
				return nil, &avtError{Off: off, Err: err}
			}
			if lit.Len() > 0 {
				a.parts = append(a.parts, avtPart{lit: lit.String()})
				lit.Reset()
			}
			a.parts = append(a.parts, avtPart{expr: e})
			i += end + 2
		case '}':
			if i+1 < len(src) && src[i+1] == '}' {
				lit.WriteByte('}')
				i += 2
				continue
			}
			return nil, &avtError{Off: i, Err: fmt.Errorf("unmatched } in attribute value template %s", src)}
		default:
			lit.WriteByte(c)
			i++
		}
	}
	if lit.Len() > 0 {
		a.parts = append(a.parts, avtPart{lit: lit.String()})
	}
	return a, nil
}

// sortKey is a compiled xsl:sort.
type sortKey struct {
	sel      *xpath.Compiled
	dataType *avt // "text" (default) or "number"
	order    *avt // "ascending" (default) or "descending"
}

// compiledVar is a compiled xsl:variable, xsl:param or xsl:with-param.
type compiledVar struct {
	name    string
	sel     *xpath.Compiled
	body    []instruction
	isParam bool
	// src is the declaring xsl:variable or xsl:param element; nil for a
	// with-param, which binds no name a reference reads.
	src *xmldom.Node
	// slot is the variable's slot, set when the program is lowered: a
	// global slot for a top-level declaration or a root-prologue local,
	// else a slot of the template's or attribute-set list's frame.
	slot int32
	// refs counts the variable references lowering resolved to this
	// declaration (see Stylesheet.Bindings).
	refs int
}

// ---- concrete instructions ----

type iLiteralText struct{ data string }

type iLiteralElement struct {
	name, prefix, uri string
	attrs             []literalAttr
	useSets           []string // xsl:use-attribute-sets
	body              []instruction
}

type literalAttr struct {
	name, prefix, uri string
	value             *avt
}

type iApplyTemplates struct {
	sel    *xpath.Compiled // nil → child::node()
	mode   string
	sorts  []sortKey
	params []*compiledVar
}

type iCallTemplate struct {
	name   string
	params []*compiledVar
	src    *xmldom.Node
}

type iForEach struct {
	sel   *xpath.Compiled
	sorts []sortKey
	body  []instruction
}

type iValueOf struct {
	sel        *xpath.Compiled
	disableEsc bool
}

type iText struct {
	data       string
	disableEsc bool
}

type iElement struct {
	name    *avt
	useSets []string
	body    []instruction
}

type iAttribute struct {
	name *avt
	body []instruction
}

type iComment struct{ body []instruction }

type iPI struct {
	name *avt
	body []instruction
}

type iCopy struct {
	useSets []string
	body    []instruction
}

type iCopyOf struct{ sel *xpath.Compiled }

type iIf struct {
	test *xpath.Compiled
	body []instruction
}

type iChoose struct {
	whens     []chooseWhen
	otherwise []instruction
}

type chooseWhen struct {
	test *xpath.Compiled
	body []instruction
}

type iVariable struct{ decl *compiledVar }

type iMessage struct {
	body      []instruction
	terminate bool
}

type iDocument struct {
	href *avt
	body []instruction
}

type iApplyImports struct{}

type iNumber struct {
	value  *xpath.Compiled // nil → count position
	format string
}

package xslt

import (
	"fmt"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

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

// constAVT returns the value of an attribute value template that holds
// no {expression}, with "{{" and "}}" unescaped; ok is false for any
// other template, well-formed or not.
func constAVT(src string) (string, bool) {
	if strings.IndexAny(src, "{}") < 0 {
		return src, true
	}
	var b strings.Builder
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c == '{' || c == '}' {
			if i+1 == len(src) || src[i+1] != c {
				return "", false
			}
			i++
		}
		b.WriteByte(c)
	}
	return b.String(), true
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

// numSite is the payload of one xsl:number.
type numSite struct {
	value  *xpath.Compiled // nil → count position
	format string
}

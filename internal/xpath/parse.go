package xpath

import (
	"fmt"
	"strings"
)

// Compile runs the full compilation pipeline on an XPath 1.0
// expression: parse, normalize, infer the static result type, and plan
// an instruction program for the IR evaluator.
func Compile(src string) (*Compiled, error) {
	ast, err := parse(src)
	if err != nil {
		return nil, err
	}
	return finishCompile(src, ast), nil
}

// parse produces the raw AST: the normalize pass's input, and the
// tree the test-only reference interpreter walks.
func parse(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &exprParser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s", p.peek())
	}
	return e, nil
}

// MustCompile is Compile but panics on error; for expressions known at
// build time.
func MustCompile(src string) *Compiled {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// maxExprDepth bounds expression nesting so hostile inputs fail with a
// syntax error instead of exhausting the goroutine stack.
const maxExprDepth = 200

type exprParser struct {
	src   string
	toks  []token
	pos   int
	depth int
}

// newPath builds a path expression verbatim. Axis canonicalization
// (fusing the `//` step pairs) happens in the normalize pass, not at
// parse time, so the reference AST mirrors the source exactly.
func newPath(input Expr, absolute bool, steps []*step) Expr {
	return &pathExpr{input: input, absolute: absolute, steps: steps}
}

func (p *exprParser) peek() token  { return p.toks[p.pos] }
func (p *exprParser) peek2() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *exprParser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *exprParser) errf(format string, args ...interface{}) error {
	return &SyntaxError{Expr: p.src, Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *exprParser) expect(kind tokKind, what string) (token, error) {
	if p.peek().kind != kind {
		return token{}, p.errf("expected %s, found %s", what, p.peek())
	}
	return p.next(), nil
}

// parseExpr := OrExpr
func (p *exprParser) parseExpr() (Expr, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxExprDepth {
		return nil, p.errf("expression too deeply nested")
	}
	return p.parseOr()
}

func (p *exprParser) parseBinaryChain(sub func() (Expr, error), ops ...tokKind) (Expr, error) {
	l, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().kind
		matched := false
		for _, op := range ops {
			if k == op {
				matched = true
				break
			}
		}
		if !matched {
			return l, nil
		}
		p.next()
		r, err := sub()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: k, l: l, r: r}
	}
}

func (p *exprParser) parseOr() (Expr, error) {
	return p.parseBinaryChain(p.parseAnd, tokOr)
}

func (p *exprParser) parseAnd() (Expr, error) {
	return p.parseBinaryChain(p.parseEquality, tokAnd)
}

func (p *exprParser) parseEquality() (Expr, error) {
	return p.parseBinaryChain(p.parseRelational, tokEq, tokNeq)
}

func (p *exprParser) parseRelational() (Expr, error) {
	return p.parseBinaryChain(p.parseAdditive, tokLt, tokLe, tokGt, tokGe)
}

func (p *exprParser) parseAdditive() (Expr, error) {
	return p.parseBinaryChain(p.parseMultiplicative, tokPlus, tokMinus)
}

func (p *exprParser) parseMultiplicative() (Expr, error) {
	return p.parseBinaryChain(p.parseUnary, tokMultiply, tokDiv, tokMod)
}

func (p *exprParser) parseUnary() (Expr, error) {
	negs := 0
	for p.peek().kind == tokMinus {
		p.next()
		negs++
	}
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for ; negs > 0; negs-- {
		e = &negExpr{e}
	}
	return e, nil
}

func (p *exprParser) parseUnion() (Expr, error) {
	first, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokPipe {
		return first, nil
	}
	parts := []Expr{first}
	for p.peek().kind == tokPipe {
		p.next()
		e, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		parts = append(parts, e)
	}
	return &unionExpr{parts: parts}, nil
}

// nodeTypeNames are the four XPath node-type tests, which look like
// function calls but are node tests.
var nodeTypeNames = map[string]bool{
	"comment": true, "text": true, "processing-instruction": true, "node": true,
}

// startsPrimary reports whether the upcoming tokens begin a FilterExpr
// (primary expression) rather than a location path.
func (p *exprParser) startsPrimary() bool {
	t := p.peek()
	switch t.kind {
	case tokVar, tokLParen, tokLiteral, tokNumber:
		return true
	case tokName:
		// FunctionCall: name '(' where name is not a node-type.
		return p.peek2().kind == tokLParen && !nodeTypeNames[t.val]
	}
	return false
}

// parsePath := LocationPath | FilterExpr (('/'|'//') RelativeLocationPath)?
func (p *exprParser) parsePath() (Expr, error) {
	if p.startsPrimary() {
		primary, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		var preds []Expr
		for p.peek().kind == tokLBracket {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			preds = append(preds, pred)
		}
		var fe Expr = primary
		if len(preds) > 0 {
			fe = &filterExpr{primary: primary, preds: preds}
		}
		switch p.peek().kind {
		case tokSlash:
			p.next()
			steps, err := p.parseRelativeSteps()
			if err != nil {
				return nil, err
			}
			return newPath(fe, false, steps), nil
		case tokSlashSlash:
			p.next()
			steps, err := p.parseRelativeSteps()
			if err != nil {
				return nil, err
			}
			steps = append([]*step{descOrSelfStep()}, steps...)
			return newPath(fe, false, steps), nil
		}
		return fe, nil
	}
	return p.parseLocationPath()
}

func descOrSelfStep() *step {
	return &step{axis: axisDescendantOrSelf, test: nodeTest{kind: testNode}}
}

func (p *exprParser) parseLocationPath() (Expr, error) {
	switch p.peek().kind {
	case tokSlash:
		p.next()
		if p.startsStep() {
			steps, err := p.parseRelativeSteps()
			if err != nil {
				return nil, err
			}
			return newPath(nil, true, steps), nil
		}
		return &pathExpr{absolute: true}, nil
	case tokSlashSlash:
		p.next()
		steps, err := p.parseRelativeSteps()
		if err != nil {
			return nil, err
		}
		steps = append([]*step{descOrSelfStep()}, steps...)
		return newPath(nil, true, steps), nil
	}
	steps, err := p.parseRelativeSteps()
	if err != nil {
		return nil, err
	}
	return newPath(nil, false, steps), nil
}

func (p *exprParser) startsStep() bool {
	switch p.peek().kind {
	case tokName, tokStar, tokAt, tokAxis, tokDot, tokDotDot:
		return true
	}
	return false
}

func (p *exprParser) parseRelativeSteps() ([]*step, error) {
	var steps []*step
	s, err := p.parseStep()
	if err != nil {
		return nil, err
	}
	steps = append(steps, s)
	for {
		switch p.peek().kind {
		case tokSlash:
			p.next()
		case tokSlashSlash:
			p.next()
			steps = append(steps, descOrSelfStep())
		default:
			return steps, nil
		}
		s, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		steps = append(steps, s)
	}
}

func (p *exprParser) parseStep() (*step, error) {
	switch p.peek().kind {
	case tokDot:
		p.next()
		return &step{axis: axisSelf, test: nodeTest{kind: testNode}}, nil
	case tokDotDot:
		p.next()
		return &step{axis: axisParent, test: nodeTest{kind: testNode}}, nil
	}
	s := &step{axis: axisChild}
	switch p.peek().kind {
	case tokAt:
		p.next()
		s.axis = axisAttribute
	case tokAxis:
		name := p.next().val
		ax, ok := axisNames[name]
		if !ok {
			return nil, p.errf("unknown axis %q", name)
		}
		s.axis = ax
	}
	test, err := p.parseNodeTest()
	if err != nil {
		return nil, err
	}
	s.test = test
	for p.peek().kind == tokLBracket {
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		s.preds = append(s.preds, pred)
	}
	return s, nil
}

func (p *exprParser) parseNodeTest() (nodeTest, error) {
	switch p.peek().kind {
	case tokStar:
		p.next()
		return nodeTest{kind: testAnyName}, nil
	case tokName:
		name := p.next().val
		if nodeTypeNames[name] && p.peek().kind == tokLParen {
			p.next()
			nt := nodeTest{}
			switch name {
			case "comment":
				nt.kind = testComment
			case "text":
				nt.kind = testText
			case "node":
				nt.kind = testNode
			case "processing-instruction":
				nt.kind = testPI
				if p.peek().kind == tokLiteral {
					nt.piTarget = p.next().val
				}
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nodeTest{}, err
			}
			return nt, nil
		}
		if strings.HasSuffix(name, ":*") {
			return nodeTest{kind: testNSWildcard, prefix: strings.TrimSuffix(name, ":*")}, nil
		}
		nt := nodeTest{kind: testName}
		if i := strings.IndexByte(name, ':'); i >= 0 {
			nt.prefix, nt.name = name[:i], name[i+1:]
		} else {
			nt.name = name
		}
		return nt, nil
	}
	return nodeTest{}, p.errf("expected node test, found %s", p.peek())
}

func (p *exprParser) parsePredicate() (Expr, error) {
	if _, err := p.expect(tokLBracket, "'['"); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBracket, "']'"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *exprParser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.next()
		return varExpr(t.val), nil
	case tokLiteral:
		p.next()
		return literalExpr(t.val), nil
	case tokNumber:
		p.next()
		return numberExpr(t.num), nil
	case tokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokName:
		// function call
		name := p.next().val
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		var args []Expr
		if p.peek().kind != tokRParen {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.peek().kind != tokComma {
					break
				}
				p.next()
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return &callExpr{name: name, args: args}, nil
	}
	return nil, p.errf("expected expression, found %s", t)
}

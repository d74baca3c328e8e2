package xslt

import (
	"fmt"
	"math"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// installFunctions registers the XSLT additional function library
// (XSLT 1.0 §12) on the engine. current() is not among them: the XPath
// core resolves it from Context.Current, which the engine sets, so the
// IR evaluates it without boxing.
func (e *engine) installFunctions() {
	e.funcs = map[string]xpath.Function{
		"generate-id":         e.fnGenerateID,
		"key":                 e.fnKey,
		"document":            e.fnDocument,
		"system-property":     fnSystemProperty,
		"format-number":       fnFormatNumber,
		"element-available":   e.fnElementAvailable,
		"function-available":  e.fnFunctionAvailable,
		"unparsed-entity-uri": fnUnparsedEntityURI,
	}
}

func (e *engine) fnGenerateID(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
	var n *xmldom.Node
	switch len(args) {
	case 0:
		n = ctx.Node
	case 1:
		ns, ok := args[0].(xpath.NodeSet)
		if !ok {
			return nil, fmt.Errorf("xslt: generate-id() requires a node-set")
		}
		if len(ns) == 0 {
			return xpath.String(""), nil
		}
		n = ns[0]
	default:
		return nil, fmt.Errorf("xslt: generate-id() takes at most one argument")
	}
	// Every tree a run reads is frozen, so a node's id is a pure
	// (document, stamp) pair: "d<doc>n<ord>". Documents are numbered per
	// engine in first-seen order, so output is deterministic across runs
	// and nothing is stored per node.
	ix := n.Index()
	num, ok := e.docNums[ix]
	if !ok {
		if e.docNums == nil {
			e.docNums = map[*xmldom.DocIndex]int{}
		}
		num = len(e.docNums) + 1
		e.docNums[ix] = num
	}
	return xpath.String(fmt.Sprintf("d%dn%d", num, n.DocOrder())), nil
}

func (e *engine) fnKey(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("xslt: key() requires two arguments")
	}
	name := xpath.ToString(args[0])
	decl := e.sheet.keys[name]
	if decl == nil {
		return nil, fmt.Errorf("xslt: no xsl:key named %q", name)
	}
	if ctx.Node == nil {
		return xpath.NodeSet(nil), nil
	}
	root := ctx.Node.Root()
	idx, err := e.keyIndex(root, decl, ctx)
	if err != nil {
		return nil, err
	}
	var out []*xmldom.Node
	add := func(val string) {
		out = append(out, idx[val]...)
	}
	if ns, ok := args[1].(xpath.NodeSet); ok {
		for _, n := range ns {
			add(n.StringValue())
		}
	} else {
		add(xpath.ToString(args[1]))
	}
	return xpath.NodeSet(xmldom.SortDocOrder(out)), nil
}

// keyIndex builds (once per document root) the value→nodes index for a key
// declaration.
func (e *engine) keyIndex(root *xmldom.Node, decl *keyDecl, ctx *xpath.Context) (map[string][]*xmldom.Node, error) {
	perRoot := e.keyIdx[root]
	if perRoot == nil {
		if e.keyIdx == nil {
			e.keyIdx = map[*xmldom.Node]map[string]map[string][]*xmldom.Node{}
		}
		perRoot = map[string]map[string][]*xmldom.Node{}
		e.keyIdx[root] = perRoot
	}
	if idx, ok := perRoot[decl.name]; ok {
		return idx, nil
	}
	idx := map[string][]*xmldom.Node{}
	var walk func(n *xmldom.Node) error
	index := func(n *xmldom.Node) error {
		mctx := *ctx
		mctx.Node = n
		mctx.Current = n
		ok, err := decl.match.Matches(&mctx, n)
		if err != nil || !ok {
			return err
		}
		v, err := decl.use.Eval(&mctx)
		if err != nil {
			return err
		}
		if ns, isNS := v.(xpath.NodeSet); isNS {
			for _, kn := range ns {
				key := kn.StringValue()
				idx[key] = append(idx[key], n)
			}
		} else {
			key := xpath.ToString(v)
			idx[key] = append(idx[key], n)
		}
		return nil
	}
	walk = func(n *xmldom.Node) error {
		if err := index(n); err != nil {
			return err
		}
		for _, a := range n.Attr {
			if err := index(a); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	perRoot[decl.name] = idx
	return idx, nil
}

func (e *engine) fnDocument(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
	if len(args) < 1 || len(args) > 2 {
		return nil, fmt.Errorf("xslt: document() requires one or two arguments")
	}
	load := func(href string) (*xmldom.Node, error) {
		if doc, ok := e.docCache[href]; ok {
			return doc, nil
		}
		if e.sheet.loader == nil {
			return nil, fmt.Errorf("xslt: document(%q): no loader configured", href)
		}
		doc, err := e.sheet.loader(href)
		if err != nil {
			return nil, fmt.Errorf("xslt: document(%q): %v", href, err)
		}
		xmldom.Freeze(doc)
		if e.docCache == nil {
			e.docCache = map[string]*xmldom.Node{}
		}
		e.docCache[href] = doc
		return doc, nil
	}
	var out []*xmldom.Node
	if ns, ok := args[0].(xpath.NodeSet); ok {
		for _, n := range ns {
			doc, err := load(n.StringValue())
			if err != nil {
				return nil, err
			}
			out = append(out, doc)
		}
	} else {
		doc, err := load(xpath.ToString(args[0]))
		if err != nil {
			return nil, err
		}
		out = append(out, doc)
	}
	return xpath.NodeSet(out), nil
}

func fnSystemProperty(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("xslt: system-property() requires one argument")
	}
	switch xpath.ToString(args[0]) {
	case "xsl:version":
		// 1.1 because xsl:document is implemented.
		return xpath.String("1.1"), nil
	case "xsl:vendor":
		return xpath.String("goldweb"), nil
	case "xsl:vendor-url":
		return xpath.String("https://github.com/goldweb/goldweb"), nil
	}
	return xpath.String(""), nil
}

func fnUnparsedEntityURI(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
	// DTD entities are not retained by the parser.
	return xpath.String(""), nil
}

// supportedInstructions lists the instruction elements this processor
// executes, for element-available().
var supportedInstructions = map[string]bool{
	"apply-templates": true, "call-template": true, "for-each": true,
	"value-of": true, "text": true, "element": true, "attribute": true,
	"comment": true, "processing-instruction": true, "copy": true,
	"copy-of": true, "if": true, "choose": true, "variable": true,
	"message": true, "document": true, "number": true, "fallback": true,
}

func (e *engine) fnElementAvailable(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("xslt: element-available() requires one argument")
	}
	name := xpath.ToString(args[0])
	if i := strings.IndexByte(name, ':'); i >= 0 {
		prefix := name[:i]
		if e.sheet.exprNS[prefix] != Namespace && prefix != "xsl" {
			return xpath.Boolean(false), nil
		}
		name = name[i+1:]
	}
	return xpath.Boolean(supportedInstructions[name]), nil
}

func (e *engine) fnFunctionAvailable(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("xslt: function-available() requires one argument")
	}
	name := xpath.ToString(args[0])
	if e.funcs[name] != nil {
		return xpath.Boolean(true), nil
	}
	// Probe the core library through a compile of "name()" is overkill;
	// keep an explicit list of the functions the XPath core resolves
	// (XSLT's current() among them).
	core := map[string]bool{"current": true, "last": true, "position": true, "count": true,
		"id": true, "local-name": true, "namespace-uri": true, "name": true,
		"string": true, "concat": true, "starts-with": true, "contains": true,
		"substring-before": true, "substring-after": true, "substring": true,
		"string-length": true, "normalize-space": true, "translate": true,
		"boolean": true, "not": true, "true": true, "false": true, "lang": true,
		"number": true, "sum": true, "floor": true, "ceiling": true, "round": true}
	return xpath.Boolean(core[name]), nil
}

// fnFormatNumber implements format-number() with the JDK 1.1
// DecimalFormat subset that covers common patterns: '0' required digit,
// '#' optional digit, '.' decimal separator, ',' grouping separator, '%'
// percent, and a negative subpattern after ';'.
func fnFormatNumber(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
	if len(args) < 2 || len(args) > 3 {
		return nil, fmt.Errorf("xslt: format-number() requires two or three arguments")
	}
	f := xpath.ToNumber(args[0])
	pattern := xpath.ToString(args[1])
	return xpath.String(formatDecimal(f, pattern)), nil
}

func formatDecimal(f float64, pattern string) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	pos, neg := pattern, ""
	if i := strings.IndexByte(pattern, ';'); i >= 0 {
		pos, neg = pattern[:i], pattern[i+1:]
	}
	p := pos
	negative := f < 0 || math.Signbit(f)
	if negative {
		f = -f
		if neg != "" {
			p = neg
			negative = false // sign already encoded in the subpattern
		}
	}
	if strings.ContainsRune(p, '%') {
		f *= 100
	}
	// Split prefix, numeric core, suffix.
	first := strings.IndexAny(p, "0#")
	if first < 0 {
		// No digits in pattern; emit the number plainly.
		return p + xpath.FormatNumber(f)
	}
	last := strings.LastIndexAny(p, "0#.,")
	prefix, core, suffix := p[:first], p[first:last+1], p[last+1:]

	intPat, fracPat := core, ""
	if i := strings.IndexByte(core, '.'); i >= 0 {
		intPat, fracPat = core[:i], core[i+1:]
	}
	minInt := strings.Count(intPat, "0")
	minFrac := strings.Count(fracPat, "0")
	maxFrac := minFrac + strings.Count(fracPat, "#")
	group := 0
	if i := strings.LastIndexByte(intPat, ','); i >= 0 {
		group = len(intPat) - 1 - i
		group -= strings.Count(intPat[i+1:], ",") // nested commas
	}

	s := fmt.Sprintf("%.*f", maxFrac, f)
	intPart, fracPart := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart = s[:i], s[i+1:]
	}
	// Trim optional fraction digits.
	for len(fracPart) > minFrac && strings.HasSuffix(fracPart, "0") {
		fracPart = fracPart[:len(fracPart)-1]
	}
	for len(intPart) < minInt {
		intPart = "0" + intPart
	}
	if group > 0 {
		var parts []string
		for len(intPart) > group {
			parts = append([]string{intPart[len(intPart)-group:]}, parts...)
			intPart = intPart[:len(intPart)-group]
		}
		parts = append([]string{intPart}, parts...)
		intPart = strings.Join(parts, ",")
	}
	var b strings.Builder
	if negative {
		b.WriteByte('-')
	}
	b.WriteString(prefix)
	b.WriteString(intPart)
	if fracPart != "" {
		b.WriteByte('.')
		b.WriteString(fracPart)
	}
	b.WriteString(suffix)
	return b.String()
}

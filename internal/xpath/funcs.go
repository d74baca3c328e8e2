package xpath

import (
	"fmt"
	"math"
	"strings"
	"unicode"

	"goldweb/internal/xmldom"
)

// coreFunctions is the XPath 1.0 core function library.
var coreFunctions map[string]Function

func init() {
	coreFunctions = map[string]Function{
		// node-set functions
		"last":          fnLast,
		"position":      fnPosition,
		"count":         fnCount,
		"id":            fnID,
		"current":       fnCurrent,
		"local-name":    fnLocalName,
		"namespace-uri": fnNamespaceURI,
		"name":          fnName,
		// string functions
		"string":           fnString,
		"concat":           fnConcat,
		"starts-with":      fnStartsWith,
		"contains":         fnContains,
		"substring-before": fnSubstringBefore,
		"substring-after":  fnSubstringAfter,
		"substring":        fnSubstring,
		"string-length":    fnStringLength,
		"normalize-space":  fnNormalizeSpace,
		"translate":        fnTranslate,
		// boolean functions
		"boolean": fnBoolean,
		"not":     fnNot,
		"true":    fnTrue,
		"false":   fnFalse,
		"lang":    fnLang,
		// number functions
		"number":  fnNumber,
		"sum":     fnSum,
		"floor":   fnFloor,
		"ceiling": fnCeiling,
		"round":   fnRound,
	}
}

// IsCoreFunction reports whether name is a function of the core
// library, which every Context resolves (current() among them).
func IsCoreFunction(name string) bool { return coreFunctions[name] != nil }

func argc(name string, args []Value, lo, hi int) error {
	if len(args) < lo || (hi >= 0 && len(args) > hi) {
		return fmt.Errorf("xpath: wrong number of arguments to %s(): %d", name, len(args))
	}
	return nil
}

// argOrContext returns the single optional argument, or the context node as
// a node-set when absent.
func argOrContext(ctx *Context, args []Value) Value {
	if len(args) > 0 {
		return args[0]
	}
	return NodeSet{ctx.Node}
}

func fnLast(ctx *Context, args []Value) (Value, error) {
	if err := argc("last", args, 0, 0); err != nil {
		return nil, err
	}
	return Number(ctx.Size), nil
}

func fnPosition(ctx *Context, args []Value) (Value, error) {
	if err := argc("position", args, 0, 0); err != nil {
		return nil, err
	}
	return Number(ctx.Position), nil
}

func fnCount(ctx *Context, args []Value) (Value, error) {
	if err := argc("count", args, 1, 1); err != nil {
		return nil, err
	}
	ns, ok := args[0].(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: count() requires a node-set")
	}
	return Number(len(ns)), nil
}

// fnID implements id(). Without DTD information, an attribute named "id"
// is treated as the element's ID, matching the convention of the paper's
// schema (every class carries an xsd:ID attribute called id).
func fnID(ctx *Context, args []Value) (Value, error) {
	if err := argc("id", args, 1, 1); err != nil {
		return nil, err
	}
	return idLookup(ctx, args[0]), nil
}

// idLookup is the body of id() after arity checking, shared with the IR
// evaluator's dedicated id-map opcode.
func idLookup(ctx *Context, arg Value) NodeSet {
	var ids []string
	switch v := arg.(type) {
	case NodeSet:
		for _, n := range v {
			ids = append(ids, strings.Fields(n.StringValue())...)
		}
	default:
		ids = strings.Fields(ToString(v))
	}
	if ctx.Node == nil {
		return NodeSet(nil)
	}
	// Answer from the document's ID map. On a document with duplicate
	// ids (invalid XML) that is the first bearer of each id.
	ix := ctx.Node.Index()
	var out []*xmldom.Node
	for _, id := range ids {
		if e := ix.ByID(id); e != nil {
			out = append(out, e)
		}
	}
	return NodeSet(xmldom.SortDocOrder(out))
}

// idLookupIR is idLookup on an unboxed argument. An argument that is one
// id token (a string, number or boolean, or a single node) is answered
// from the ID map as the element's frozen singleton, without splitting,
// boxing or allocating.
func idLookupIR(ctx *Context, arg irval) NodeSet {
	if ctx.Node != nil && (arg.kind != vNodes || len(arg.nodes) == 1) {
		if id, ok := singleToken(arg.toStr()); ok {
			if e := ctx.Node.Index().ByID(id); e != nil {
				return e.Singleton()
			}
			return nil
		}
	}
	return idLookup(ctx, arg.boxed())
}

// singleToken reports whether s splits into exactly one field under
// strings.Fields, returning that field.
func singleToken(s string) (string, bool) {
	t := strings.TrimFunc(s, unicode.IsSpace)
	return t, t != "" && strings.IndexFunc(t, unicode.IsSpace) < 0
}

// fnCurrent implements the XSLT current() function: the node-set holding
// Context.Current, empty outside XSLT where no current node is set.
func fnCurrent(ctx *Context, args []Value) (Value, error) {
	if err := argc("current", args, 0, 0); err != nil {
		return nil, err
	}
	return currentNode(ctx), nil
}

// currentNode is the body of current(), shared with the IR evaluator's
// dedicated opcode: on a frozen document the current node's frozen
// singleton, so nothing is allocated.
func currentNode(ctx *Context) NodeSet {
	if ctx.Current == nil {
		return nil
	}
	return ctx.Current.Singleton()
}

func singleNode(ctx *Context, args []Value) (*xmldom.Node, error) {
	if len(args) == 0 {
		return ctx.Node, nil
	}
	ns, ok := args[0].(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: argument must be a node-set")
	}
	if len(ns) == 0 {
		return nil, nil
	}
	return ns[0], nil
}

func fnLocalName(ctx *Context, args []Value) (Value, error) {
	if err := argc("local-name", args, 0, 1); err != nil {
		return nil, err
	}
	n, err := singleNode(ctx, args)
	if err != nil || n == nil {
		return String(""), err
	}
	switch n.Type {
	case xmldom.ElementNode, xmldom.AttrNode, xmldom.PINode:
		return String(n.Name), nil
	}
	return String(""), nil
}

func fnNamespaceURI(ctx *Context, args []Value) (Value, error) {
	if err := argc("namespace-uri", args, 0, 1); err != nil {
		return nil, err
	}
	n, err := singleNode(ctx, args)
	if err != nil || n == nil {
		return String(""), err
	}
	return String(n.URI), nil
}

func fnName(ctx *Context, args []Value) (Value, error) {
	if err := argc("name", args, 0, 1); err != nil {
		return nil, err
	}
	n, err := singleNode(ctx, args)
	if err != nil || n == nil {
		return String(""), err
	}
	switch n.Type {
	case xmldom.ElementNode, xmldom.AttrNode:
		return String(n.FullName()), nil
	case xmldom.PINode:
		return String(n.Name), nil
	}
	return String(""), nil
}

func fnString(ctx *Context, args []Value) (Value, error) {
	if err := argc("string", args, 0, 1); err != nil {
		return nil, err
	}
	return String(ToString(argOrContext(ctx, args))), nil
}

func fnConcat(ctx *Context, args []Value) (Value, error) {
	if err := argc("concat", args, 2, -1); err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, a := range args {
		b.WriteString(ToString(a))
	}
	return String(b.String()), nil
}

func fnStartsWith(ctx *Context, args []Value) (Value, error) {
	if err := argc("starts-with", args, 2, 2); err != nil {
		return nil, err
	}
	return Boolean(strings.HasPrefix(ToString(args[0]), ToString(args[1]))), nil
}

func fnContains(ctx *Context, args []Value) (Value, error) {
	if err := argc("contains", args, 2, 2); err != nil {
		return nil, err
	}
	return Boolean(strings.Contains(ToString(args[0]), ToString(args[1]))), nil
}

func fnSubstringBefore(ctx *Context, args []Value) (Value, error) {
	if err := argc("substring-before", args, 2, 2); err != nil {
		return nil, err
	}
	s, sep := ToString(args[0]), ToString(args[1])
	if i := strings.Index(s, sep); i >= 0 {
		return String(s[:i]), nil
	}
	return String(""), nil
}

func fnSubstringAfter(ctx *Context, args []Value) (Value, error) {
	if err := argc("substring-after", args, 2, 2); err != nil {
		return nil, err
	}
	s, sep := ToString(args[0]), ToString(args[1])
	if i := strings.Index(s, sep); i >= 0 {
		return String(s[i+len(sep):]), nil
	}
	return String(""), nil
}

// fnSubstring implements the XPath substring() with its rounding and
// boundary semantics (positions are 1-based, counted in runes).
func fnSubstring(ctx *Context, args []Value) (Value, error) {
	if err := argc("substring", args, 2, 3); err != nil {
		return nil, err
	}
	runes := []rune(ToString(args[0]))
	start := xpathRound(ToNumber(args[1]))
	var end float64
	if len(args) == 3 {
		end = start + xpathRound(ToNumber(args[2]))
	} else {
		end = math.Inf(1)
	}
	if math.IsNaN(start) || math.IsNaN(end) {
		return String(""), nil
	}
	var b strings.Builder
	for i, r := range runes {
		pos := float64(i + 1)
		if pos >= start && pos < end {
			b.WriteRune(r)
		}
	}
	return String(b.String()), nil
}

func fnStringLength(ctx *Context, args []Value) (Value, error) {
	if err := argc("string-length", args, 0, 1); err != nil {
		return nil, err
	}
	return Number(len([]rune(ToString(argOrContext(ctx, args))))), nil
}

func fnNormalizeSpace(ctx *Context, args []Value) (Value, error) {
	if err := argc("normalize-space", args, 0, 1); err != nil {
		return nil, err
	}
	return String(strings.Join(strings.Fields(ToString(argOrContext(ctx, args))), " ")), nil
}

func fnTranslate(ctx *Context, args []Value) (Value, error) {
	if err := argc("translate", args, 3, 3); err != nil {
		return nil, err
	}
	src := ToString(args[0])
	from := []rune(ToString(args[1]))
	to := []rune(ToString(args[2]))
	mapping := make(map[rune]rune, len(from))
	remove := make(map[rune]bool)
	for i, r := range from {
		if _, seen := mapping[r]; seen || remove[r] {
			continue
		}
		if i < len(to) {
			mapping[r] = to[i]
		} else {
			remove[r] = true
		}
	}
	var b strings.Builder
	for _, r := range src {
		if remove[r] {
			continue
		}
		if m, ok := mapping[r]; ok {
			b.WriteRune(m)
		} else {
			b.WriteRune(r)
		}
	}
	return String(b.String()), nil
}

func fnBoolean(ctx *Context, args []Value) (Value, error) {
	if err := argc("boolean", args, 1, 1); err != nil {
		return nil, err
	}
	return Boolean(ToBool(args[0])), nil
}

func fnNot(ctx *Context, args []Value) (Value, error) {
	if err := argc("not", args, 1, 1); err != nil {
		return nil, err
	}
	return Boolean(!ToBool(args[0])), nil
}

func fnTrue(ctx *Context, args []Value) (Value, error) {
	if err := argc("true", args, 0, 0); err != nil {
		return nil, err
	}
	return Boolean(true), nil
}

func fnFalse(ctx *Context, args []Value) (Value, error) {
	if err := argc("false", args, 0, 0); err != nil {
		return nil, err
	}
	return Boolean(false), nil
}

func fnLang(ctx *Context, args []Value) (Value, error) {
	if err := argc("lang", args, 1, 1); err != nil {
		return nil, err
	}
	want := strings.ToLower(ToString(args[0]))
	for n := ctx.Node; n != nil; n = n.Parent {
		if n.Type != xmldom.ElementNode {
			continue
		}
		if a := n.GetAttrNS(xmldom.XMLNamespace, "lang"); a != nil {
			have := strings.ToLower(a.Data)
			return Boolean(have == want || strings.HasPrefix(have, want+"-")), nil
		}
	}
	return Boolean(false), nil
}

func fnNumber(ctx *Context, args []Value) (Value, error) {
	if err := argc("number", args, 0, 1); err != nil {
		return nil, err
	}
	return Number(ToNumber(argOrContext(ctx, args))), nil
}

func fnSum(ctx *Context, args []Value) (Value, error) {
	if err := argc("sum", args, 1, 1); err != nil {
		return nil, err
	}
	ns, ok := args[0].(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: sum() requires a node-set")
	}
	total := 0.0
	for _, n := range ns {
		total += stringToNumber(n.StringValue())
	}
	return Number(total), nil
}

func fnFloor(ctx *Context, args []Value) (Value, error) {
	if err := argc("floor", args, 1, 1); err != nil {
		return nil, err
	}
	return Number(math.Floor(ToNumber(args[0]))), nil
}

func fnCeiling(ctx *Context, args []Value) (Value, error) {
	if err := argc("ceiling", args, 1, 1); err != nil {
		return nil, err
	}
	return Number(math.Ceil(ToNumber(args[0]))), nil
}

func fnRound(ctx *Context, args []Value) (Value, error) {
	if err := argc("round", args, 1, 1); err != nil {
		return nil, err
	}
	return Number(xpathRound(ToNumber(args[0]))), nil
}

// xpathRound rounds half towards positive infinity, as XPath requires
// (round(-0.5) is -0, not -1).
func xpathRound(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return f
	}
	return math.Floor(f + 0.5)
}

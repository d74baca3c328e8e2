// Package xmldom implements a lightweight XML document object model with a
// namespace-aware parser and XML/HTML/text serializers.
//
// It is the tree substrate that the xpath, xslt and xsd packages operate
// over, playing the role that a browser DOM or Xerces' DOM played in the
// original system. Only the Go standard library is used.
package xmldom

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// NodeType identifies the kind of a Node.
type NodeType uint8

// The node kinds of the XPath data model that this DOM represents.
const (
	DocumentNode NodeType = iota + 1
	ElementNode
	TextNode
	CommentNode
	PINode
	AttrNode
)

func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case PINode:
		return "processing-instruction"
	case AttrNode:
		return "attribute"
	}
	return fmt.Sprintf("NodeType(%d)", uint8(t))
}

// Node is a node in an XML document tree. The same struct represents every
// node kind; which fields are meaningful depends on Type:
//
//   - ElementNode: Name (local), Prefix, URI, Attr, Children
//   - AttrNode: Name (local), Prefix, URI, Data (value)
//   - TextNode, CommentNode: Data
//   - PINode: Name (target), Data
//   - DocumentNode: Children
type Node struct {
	Type   NodeType
	Name   string // local name (element/attribute) or PI target
	Prefix string // namespace prefix as written in the source
	URI    string // resolved namespace URI ("" = no namespace)
	Data   string // character data or attribute value

	Parent   *Node
	Children []*Node
	Attr     []*Node // attribute nodes; Parent points at the element

	// Line and Col locate the node in its source document (1-based);
	// zero for programmatically constructed nodes.
	Line, Col int

	// Raw marks a text node whose data must be emitted without escaping
	// (produced by xsl:value-of disable-output-escaping, script/style).
	Raw bool

	// Index state, populated by Freeze (see index.go). ord/end are the
	// node's document-order stamp and its subtree's last stamp, sym the
	// interned name, idx the owning document's identity + indexes.
	ord, end uint64
	sym      Sym
	idx      *DocIndex
}

// NewDocument returns an empty document node. Documents carry a
// process-unique identity from birth so cross-tree document-order
// comparisons are deterministic.
func NewDocument() *Node {
	d := &Node{Type: DocumentNode}
	d.idx = newDocIdent(d)
	return d
}

// NewElement returns a detached element with the given local name and no
// namespace.
func NewElement(name string) *Node { return &Node{Type: ElementNode, Name: name} }

// NewText returns a detached text node.
func NewText(data string) *Node { return &Node{Type: TextNode, Data: data} }

// FullName returns the qualified name as written in the source
// (prefix:local, or just the local name when there is no prefix).
func (n *Node) FullName() string {
	if n.Prefix != "" {
		return n.Prefix + ":" + n.Name
	}
	return n.Name
}

// AppendChild adds c as the last child of n and reparents it.
// Panics when either tree is frozen (see Freeze/Editable).
func (n *Node) AppendChild(c *Node) *Node {
	n.assertMutable()
	c.assertMutable()
	c.Parent = n
	n.Children = append(n.Children, c)
	return c
}

// InsertBefore inserts c immediately before the existing child ref.
// If ref is nil or not a child of n, c is appended.
// Panics when either tree is frozen (see Freeze/Editable).
func (n *Node) InsertBefore(c, ref *Node) {
	n.assertMutable()
	c.assertMutable()
	idx := -1
	for i, ch := range n.Children {
		if ch == ref {
			idx = i
			break
		}
	}
	if idx < 0 {
		n.AppendChild(c)
		return
	}
	c.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[idx+1:], n.Children[idx:])
	n.Children[idx] = c
}

// RemoveChild detaches c from n. It is a no-op if c is not a child of n.
// Panics when the tree is frozen (see Freeze/Editable).
func (n *Node) RemoveChild(c *Node) {
	n.assertMutable()
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.Parent = nil
			return
		}
	}
}

// AddElement creates an element child with the given local name, appends it
// and returns it.
func (n *Node) AddElement(name string) *Node {
	return n.AppendChild(NewElement(name))
}

// AddText creates and appends a text child.
func (n *Node) AddText(data string) *Node {
	return n.AppendChild(NewText(data))
}

// SetAttr sets the value of the attribute with the given local name and no
// namespace, creating it if necessary, and returns the attribute node.
func (n *Node) SetAttr(name, value string) *Node {
	return n.SetAttrNS("", "", name, value)
}

// SetAttrNS sets a namespaced attribute on n.
// Panics when the tree is frozen (see Freeze/Editable).
func (n *Node) SetAttrNS(prefix, uri, name, value string) *Node {
	n.assertMutable()
	for _, a := range n.Attr {
		if a.Name == name && a.URI == uri {
			a.Data = value
			a.Prefix = prefix
			return a
		}
	}
	a := &Node{Type: AttrNode, Name: name, Prefix: prefix, URI: uri, Data: value, Parent: n}
	n.Attr = append(n.Attr, a)
	return a
}

// GetAttr returns the attribute node with the given local name and empty
// namespace URI, or nil.
func (n *Node) GetAttr(name string) *Node { return n.GetAttrNS("", name) }

// GetAttrNS returns the attribute node with the given namespace URI and
// local name, or nil.
func (n *Node) GetAttrNS(uri, name string) *Node {
	for _, a := range n.Attr {
		if a.Name == name && a.URI == uri {
			return a
		}
	}
	return nil
}

// AttrValue returns the value of the named no-namespace attribute, or ""
// when absent.
func (n *Node) AttrValue(name string) string {
	if a := n.GetAttr(name); a != nil {
		return a.Data
	}
	return ""
}

// HasAttr reports whether the named no-namespace attribute is present.
func (n *Node) HasAttr(name string) bool { return n.GetAttr(name) != nil }

// RemoveAttr deletes the named no-namespace attribute if present.
// Panics when the tree is frozen (see Freeze/Editable).
func (n *Node) RemoveAttr(name string) {
	n.assertMutable()
	for i, a := range n.Attr {
		if a.Name == name && a.URI == "" {
			n.Attr = append(n.Attr[:i], n.Attr[i+1:]...)
			a.Parent = nil
			return
		}
	}
}

// Root returns the topmost ancestor of n (the document node for attached
// nodes). For attribute nodes the owning element's root is returned.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// DocumentElement returns the first element child of a document node, the
// node itself when called on an element, and nil otherwise.
func (n *Node) DocumentElement() *Node {
	if n.Type == ElementNode {
		return n
	}
	if n.Type != DocumentNode {
		return nil
	}
	for _, c := range n.Children {
		if c.Type == ElementNode {
			return c
		}
	}
	return nil
}

// Elements returns the element children of n.
func (n *Node) Elements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// ElementsByName returns the element children with the given local name.
func (n *Node) ElementsByName(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// FirstElement returns the first element child with the given local name,
// or nil.
func (n *Node) FirstElement(name string) *Node {
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// Descendants appends to out every descendant of n in document order
// (excluding n itself and attribute nodes) and returns the slice.
func (n *Node) Descendants() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		for _, c := range m.Children {
			out = append(out, c)
			walk(c)
		}
	}
	walk(n)
	return out
}

// DescendantElements returns all descendant elements with the given local
// name, in document order. An empty name matches every element.
func (n *Node) DescendantElements(name string) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		for _, c := range m.Children {
			if c.Type == ElementNode && (name == "" || c.Name == name) {
				out = append(out, c)
			}
			walk(c)
		}
	}
	walk(n)
	return out
}

// StringValue returns the XPath string-value of the node: the concatenation
// of all descendant text for documents and elements, and the node's own data
// otherwise.
func (n *Node) StringValue() string {
	switch n.Type {
	case DocumentNode, ElementNode:
		var b strings.Builder
		var walk func(*Node)
		walk = func(m *Node) {
			for _, c := range m.Children {
				if c.Type == TextNode {
					b.WriteString(c.Data)
				} else if c.Type == ElementNode {
					walk(c)
				}
			}
		}
		walk(n)
		return b.String()
	default:
		return n.Data
	}
}

// Clone returns a deep copy of n. The copy is detached (Parent is nil).
func (n *Node) Clone() *Node {
	c := &Node{Type: n.Type, Name: n.Name, Prefix: n.Prefix, URI: n.URI,
		Data: n.Data, Line: n.Line, Col: n.Col, Raw: n.Raw}
	for _, a := range n.Attr {
		ac := a.Clone()
		ac.Parent = c
		c.Attr = append(c.Attr, ac)
	}
	for _, ch := range n.Children {
		cc := ch.Clone()
		cc.Parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

// Path returns a human-readable slash path from the root to n, such as
// /goldmodel/factclasses/factclass[2]/@id, useful in error messages.
func (n *Node) Path() string {
	if n == nil {
		return ""
	}
	var parts []string
	for cur := n; cur != nil && cur.Type != DocumentNode; cur = cur.Parent {
		switch cur.Type {
		case AttrNode:
			parts = append(parts, "@"+cur.FullName())
		case ElementNode:
			step := cur.FullName()
			if p := cur.Parent; p != nil {
				idx, total := 0, 0
				for _, sib := range p.Children {
					if sib.Type == ElementNode && sib.Name == cur.Name && sib.URI == cur.URI {
						total++
						if sib == cur {
							idx = total
						}
					}
				}
				if total > 1 {
					step = fmt.Sprintf("%s[%d]", step, idx)
				}
			}
			parts = append(parts, step)
		case TextNode:
			parts = append(parts, "text()")
		case CommentNode:
			parts = append(parts, "comment()")
		case PINode:
			parts = append(parts, "processing-instruction()")
		}
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	if b.Len() == 0 {
		return "/"
	}
	return b.String()
}

// CompareOrder reports the relative document order of a and b:
// -1 if a precedes b, +1 if a follows b, 0 if they are the same node.
// Both nodes must belong to frozen trees (see Freeze): the comparison is
// a single stamp comparison. Nodes from different trees compare by an
// arbitrary but consistent rule (tree identity, assigned at document
// creation). It panics on a node of an unfrozen tree.
func CompareOrder(a, b *Node) int {
	mustBeFrozen("CompareOrder", a)
	mustBeFrozen("CompareOrder", b)
	return compareStamps(a, b)
}

// compareStamps orders nodes of frozen trees by tree identity, then by
// document-order stamp.
func compareStamps(a, b *Node) int {
	if a.idx != b.idx {
		return cmp.Compare(a.idx.id, b.idx.id)
	}
	return cmp.Compare(a.ord, b.ord)
}

// SortDocOrder sorts nodes in place into document order and removes
// duplicates, returning the (possibly shortened) slice. Every node must
// belong to a frozen tree; given two or more nodes, it panics on a node
// of an unfrozen tree.
func SortDocOrder(nodes []*Node) []*Node {
	if len(nodes) < 2 {
		return nodes
	}
	for _, n := range nodes {
		mustBeFrozen("SortDocOrder", n)
	}
	// Node-sets merged from successive context nodes usually arrive in
	// order already; checking first skips the sort for them.
	if !slices.IsSortedFunc(nodes, compareStamps) {
		slices.SortFunc(nodes, compareStamps)
	}
	out := nodes[:0]
	var prev *Node
	for _, n := range nodes {
		if n != prev {
			out = append(out, n)
			prev = n
		}
	}
	return out
}

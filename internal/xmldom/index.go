package xmldom

// The indexed document layer: after a tree is fully built, Freeze walks it
// once, assigns every node a monotone document-order stamp, interns element
// and attribute names into symbol ids, and builds per-document ID and
// element-name indexes. A frozen tree is effectively immutable — the
// exported mutators panic on it — which is what makes a document safely
// shareable across goroutines (the XSLT engine, the publication pipeline
// and the HTTP server all rely on this). Mutation after freeze is an
// explicit copy-on-write step: Editable returns a deep, unfrozen copy.
//
// Document order (DocOrder, SortDocOrder) is defined on frozen trees
// only. Document identity is a process-global counter assigned when a
// document node is created (and by Freeze for detached subtree roots), so
// cross-tree document-order comparisons are deterministic across runs
// instead of depending on allocator addresses.

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Sym is an interned name symbol. Two names are equal iff their symbols
// are equal; 0 is reserved for "not interned".
type Sym uint32

// symtab is the process-global name intern table, shared by every
// document so symbols are comparable across trees.
var symtab = struct {
	sync.RWMutex
	ids map[string]Sym
}{ids: map[string]Sym{}}

// Intern returns the symbol for name, assigning one on first use.
func Intern(name string) Sym {
	symtab.RLock()
	s, ok := symtab.ids[name]
	symtab.RUnlock()
	if ok {
		return s
	}
	symtab.Lock()
	defer symtab.Unlock()
	if s, ok = symtab.ids[name]; ok {
		return s
	}
	s = Sym(len(symtab.ids) + 1)
	symtab.ids[name] = s
	return s
}

// lookupSym returns the symbol for name without interning it; 0 when the
// name has never been interned (and therefore occurs in no frozen tree).
func lookupSym(name string) Sym {
	symtab.RLock()
	s := symtab.ids[name]
	symtab.RUnlock()
	return s
}

// Sym returns the interned name symbol of an element, attribute or
// processing instruction of a frozen tree, and 0 for any other node.
func (n *Node) Sym() Sym { return n.sym }

// docIDs is the process-global document identity counter.
var docIDs atomic.Uint64

// DocIndex carries a tree's identity and, once frozen, its document-order
// stamps and lookup indexes.
type DocIndex struct {
	id     uint64 // creation-ordered tree identity
	frozen bool

	byID   map[string]*Node // value of the no-namespace "id" attribute → element (first wins)
	byName map[Sym][]*Node  // interned element local name → elements in document order
}

// ByID returns the element whose no-namespace "id" attribute has the
// given value, or nil. Only meaningful on a frozen index.
func (ix *DocIndex) ByID(id string) *Node { return ix.byID[id] }

// newDocIdent allocates an identity-only index (no stamps yet).
func newDocIdent() *DocIndex {
	return &DocIndex{id: docIDs.Add(1)}
}

// Freeze indexes the tree rooted at n and marks it immutable: every node
// gets a document-order stamp and a subtree-end stamp, element and
// attribute names are interned, and the per-document ID and element-name
// indexes are built. n must be the root of its tree (no parent). Freeze
// is idempotent; freezing an already-frozen tree returns its index.
//
// After Freeze the exported mutators (AppendChild, SetAttr, RemoveAttr,
// ...) panic; use Editable to obtain a mutable deep copy. A frozen tree
// is safe for concurrent readers.
func Freeze(n *Node) *DocIndex {
	if n.idx != nil && n.idx.frozen {
		return n.idx
	}
	if n.Parent != nil {
		panic("xmldom: Freeze requires the root of a tree (node has a parent)")
	}
	ix := n.idx
	if ix == nil {
		ix = newDocIdent()
	}
	ix.byID = map[string]*Node{}
	ix.byName = map[Sym][]*Node{}
	var stamp uint64
	var walk func(m *Node)
	walk = func(m *Node) {
		stamp++
		m.ord = stamp
		m.idx = ix
		if m.Type == ElementNode || m.Type == AttrNode || m.Type == PINode {
			m.sym = Intern(m.Name)
		}
		if m.Type == ElementNode {
			ix.byName[m.sym] = append(ix.byName[m.sym], m)
		}
		for _, a := range m.Attr {
			stamp++
			a.ord = stamp
			a.end = stamp
			a.idx = ix
			a.sym = Intern(a.Name)
			if a.Name == "id" && a.URI == "" && m.Type == ElementNode {
				if _, dup := ix.byID[a.Data]; !dup {
					ix.byID[a.Data] = m
				}
			}
		}
		for _, c := range m.Children {
			walk(c)
		}
		m.end = stamp
	}
	walk(n)
	ix.frozen = true
	return ix
}

// Frozen reports whether n belongs to a frozen (indexed, immutable) tree.
func (n *Node) Frozen() bool { return n.idx != nil && n.idx.frozen }

// Index returns the document index n belongs to, or nil when its tree has
// not been frozen.
func (n *Node) Index() *DocIndex {
	if n.idx != nil && n.idx.frozen {
		return n.idx
	}
	return nil
}

// DocOrder returns n's document-order stamp (1-based within its frozen
// tree), or 0 when the tree is not frozen. An element precedes its
// attributes, which precede its children.
func (n *Node) DocOrder() uint64 {
	if n.Frozen() {
		return n.ord
	}
	return 0
}

// Editable returns a deep, mutable copy of n with all index state
// cleared — the copy-on-write escape hatch for frozen trees. The copy is
// detached (Parent is nil).
func (n *Node) Editable() *Node { return n.Clone() }

// mustBeFrozen panics when n does not belong to a frozen tree. Document
// order and the name index exist only on frozen trees; an unfrozen tree
// has no stamps to compare, so op would silently misorder its nodes.
func mustBeFrozen(op string, n *Node) {
	if !n.Frozen() {
		panic("xmldom: " + op + " on a node of an unfrozen tree; Freeze the tree first")
	}
}

// assertMutable panics when n belongs to a frozen tree. It is called by
// every exported mutator so the freeze contract fails loudly instead of
// silently corrupting the index.
func (n *Node) assertMutable() {
	if n.idx != nil && n.idx.frozen {
		panic("xmldom: mutation of a frozen document; use Editable() for a mutable copy")
	}
}

// IndexedDescendants returns the descendant elements of n with the given
// local name using the frozen tree's name index; it panics when n's tree
// is not frozen. When includeSelf is true and n itself is a matching
// element it is included. The result shares memory with the index and
// must not be modified; it is in document order and may contain elements
// of any namespace URI with that local name.
func (n *Node) IndexedDescendants(name string, includeSelf bool) []*Node {
	mustBeFrozen("IndexedDescendants", n)
	list := n.idx.byName[lookupSym(name)]
	if len(list) == 0 {
		return nil
	}
	lo := n.ord + 1
	if includeSelf {
		lo = n.ord
	}
	// list is stamped in document order: binary-search the subtree window.
	i := sort.Search(len(list), func(k int) bool { return list[k].ord >= lo })
	j := sort.Search(len(list), func(k int) bool { return list[k].ord > n.end })
	if i >= j {
		return nil
	}
	return list[i:j:j]
}

// Singleton returns a one-node slice holding n. On a frozen tree it is a
// capped window into storage the tree already has, so it allocates
// nothing: an element's slot in the name index, an attribute's slot in
// its element's Attr, and any other node's slot in its parent's
// Children. The window shares memory with the tree and must not be
// modified. On an unfrozen tree, and for a frozen tree's root when it is
// not an element, the slice is freshly allocated.
func (n *Node) Singleton() []*Node {
	if n.Frozen() {
		var list []*Node
		switch {
		case n.Type == ElementNode:
			list = n.idx.byName[n.sym]
		case n.Parent == nil:
		case n.Type == AttrNode:
			list = n.Parent.Attr
		default:
			list = n.Parent.Children
		}
		// Every list is in document order: binary-search n's stamp.
		i := sort.Search(len(list), func(k int) bool { return list[k].ord >= n.ord })
		if i < len(list) && list[i] == n {
			return list[i : i+1 : i+1]
		}
	}
	return []*Node{n}
}

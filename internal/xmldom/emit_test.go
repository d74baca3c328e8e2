package xmldom

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// driveEmitter plays a representative event script covering elements with
// mixed/structured/empty content, html void + raw-text elements, namespaced
// elements, attribute overwrites, late attributes, comments, PIs, and raw
// text.
func driveEmitter(em Emitter) {
	em.PI("xml-stylesheet", `href="s.css" type="text/css"`)
	em.Comment(" head ")
	em.BeginElement("", "", "html")
	em.BeginElement("", "", "head")
	em.BeginElement("", "", "meta")
	em.Attr("", "", "charset", "utf-8")
	em.EndElement()
	em.BeginElement("", "", "title")
	em.Text("A & B <title>", false)
	em.EndElement()
	em.BeginElement("", "", "style")
	em.Text("body > p { color: \"red\" }", false)
	em.EndElement()
	em.BeginElement("", "", "script")
	em.Text("if (a < b && c > d) { go() }", false)
	em.EndElement()
	em.EndElement() // head
	em.BeginElement("", "", "body")
	em.Attr("", "", "class", "x")
	em.Attr("", "", "class", "y") // overwrite in place
	em.Attr("", "", "id", "main")
	em.BeginElement("", "", "p")
	em.Text("mixed ", false)
	em.BeginElement("", "", "b")
	em.Text("content", false)
	em.EndElement()
	em.Text(" here\ttab \"q\" \r\n", false)
	em.EndElement()
	em.BeginElement("", "", "br")
	em.EndElement()
	em.BeginElement("", "", "div")
	em.EndElement() // empty non-void
	em.BeginElement("", "", "ul")
	em.Text("\n  ", false) // whitespace-only between structured children
	em.BeginElement("", "", "li")
	em.Text("one", false)
	em.EndElement()
	em.Text("\n  ", false)
	em.BeginElement("", "", "li")
	em.Attr("", "", "data-v", "<&>\"'")
	em.EndElement()
	em.Text("\n", false)
	em.EndElement() // ul
	em.BeginElement("x", "urn:x", "widget")
	em.Attr("x", "urn:x", "kind", "k1")
	em.BeginElement("", "", "span")
	em.EndElement()
	// late attribute, after child content
	em.Attr("", "", "late", "yes")
	em.EndElement()
	em.BeginElement("", "", "pre")
	em.Text("<raw & unescaped>", true)
	em.EndElement()
	em.Comment(" trailing comment ")
	em.PI("target", "")
	em.EndElement() // body
	em.EndElement() // html
	em.Comment(" tail ")
}

func emitterOptionMatrix() []WriteOptions {
	var opts []WriteOptions
	for _, method := range []string{"xml", "html", "text"} {
		for _, indent := range []string{"", "  "} {
			for _, omit := range []bool{false, true} {
				opts = append(opts, WriteOptions{Method: method, Indent: indent, OmitDecl: omit})
			}
		}
	}
	opts = append(opts,
		WriteOptions{Method: "html", Indent: "  ", DoctypePublic: "-//W3C//DTD HTML 4.01//EN", DoctypeSystem: "http://www.w3.org/TR/html4/strict.dtd"},
		WriteOptions{Method: "xml", DoctypeSystem: "model.dtd"},
		WriteOptions{Method: "html", DoctypePublic: "-//X//Y//EN"},
	)
	return opts
}

// TestByteEmitterMatchesTreeSerialization drives the same event stream into
// both sinks and requires the serialize.golden bytes for every output
// option combination.
func TestByteEmitterMatchesTreeSerialization(t *testing.T) {
	golden := serializeGoldenEntries(t)
	doc := NewDocument()
	tree := NewTreeEmitter(doc)
	driveEmitter(tree)

	for _, opt := range emitterOptionMatrix() {
		want := golden["emitter "+optLabel(opt)]

		be := NewByteEmitter()
		driveEmitter(be)
		got := fmt.Sprintf("%q", be.AppendSerialized(nil, opt))
		// AppendSerialized must be repeatable on the same tape.
		again := fmt.Sprintf("%q", be.AppendSerialized(nil, opt))
		be.Release()

		if got != want {
			t.Errorf("opts %+v:\n byte emitter: %s\n golden:       %s", opt, got, want)
		}
		if again != got {
			t.Errorf("opts %+v: second AppendSerialized differs", opt)
		}
		if tree := fmt.Sprintf("%q", SerializeToString(doc, opt)); tree != want {
			t.Errorf("opts %+v:\n tree emitter: %s\n golden:       %s", opt, tree, want)
		}
	}
}

// TestByteEmitterCopyTreeMatches checks CopyTree on both sinks against
// serialize.golden for a parsed subtree, including attributes and nested
// structure.
func TestByteEmitterCopyTreeMatches(t *testing.T) {
	golden := serializeGoldenEntries(t)
	root := copyTreeRoot(t)

	doc := NewDocument()
	tree := NewTreeEmitter(doc)
	tree.BeginElement("", "", "wrap")
	tree.CopyTree(root)
	tree.EndElement()

	be := NewByteEmitter()
	defer be.Release()
	be.BeginElement("", "", "wrap")
	be.CopyTree(root)
	be.EndElement()

	for _, opt := range copyTreeOptions {
		want := golden["copytree "+optLabel(opt)]
		if got := fmt.Sprintf("%q", be.AppendSerialized(nil, opt)); got != want {
			t.Errorf("opts %+v:\n byte emitter: %s\n golden:       %s", opt, got, want)
		}
		if got := fmt.Sprintf("%q", SerializeToString(doc, opt)); got != want {
			t.Errorf("opts %+v:\n tree emitter: %s\n golden:       %s", opt, got, want)
		}
	}
}

// TestEmitterAttrSemantics pins the DOM-mirroring contract: Attr outside an
// open element fails, overwrites keep position, and namespaced attributes
// are distinct from same-named no-namespace ones.
func TestEmitterAttrSemantics(t *testing.T) {
	for _, mk := range []struct {
		name string
		make func() Emitter
	}{
		{"tree", func() Emitter { return NewTreeEmitter(NewDocument()) }},
		{"byte", func() Emitter { return NewByteEmitter() }},
	} {
		em := mk.make()
		if em.OpenElement() {
			t.Errorf("%s: OpenElement true before any element", mk.name)
		}
		if em.Attr("", "", "a", "v") {
			t.Errorf("%s: Attr succeeded with no open element", mk.name)
		}
		em.BeginElement("", "", "e")
		if !em.OpenElement() {
			t.Errorf("%s: OpenElement false inside element", mk.name)
		}
		if !em.Attr("", "", "a", "v") {
			t.Errorf("%s: Attr failed inside element", mk.name)
		}
		em.EndElement()
		if em.OpenElement() {
			t.Errorf("%s: OpenElement true after EndElement", mk.name)
		}
	}

	// Overwrite keeps original position; ns attr is distinct.
	be := NewByteEmitter()
	defer be.Release()
	be.BeginElement("", "", "e")
	be.Attr("", "", "a", "1")
	be.Attr("", "", "b", "2")
	be.Attr("p", "urn:p", "a", "3")
	be.Attr("", "", "a", "9")
	be.EndElement()
	got := string(be.AppendSerialized(nil, WriteOptions{OmitDecl: true}))
	want := `<e a="9" b="2" p:a="3"/>`
	if got != want {
		t.Errorf("attr overwrite: got %q want %q", got, want)
	}
}

func TestByteEmitterRootElement(t *testing.T) {
	be := NewByteEmitter()
	defer be.Release()
	if _, _, ok := be.RootElement(); ok {
		t.Error("RootElement ok on empty tape")
	}
	be.Comment("lead")
	be.BeginElement("h", "urn:h", "HTML")
	be.BeginElement("", "", "inner")
	be.EndElement()
	be.EndElement()
	name, uri, ok := be.RootElement()
	if !ok || name != "HTML" || uri != "urn:h" {
		t.Errorf("RootElement = %q %q %v", name, uri, ok)
	}
}

func TestEscapeAppendHelpers(t *testing.T) {
	in := "a&b<c>d\re\tf\ng\"h\u00e9\u4e16"
	if got, want := string(appendEscText(nil, in)), "a&amp;b&lt;c&gt;d&#13;e\tf\ng\"h\u00e9\u4e16"; got != want {
		t.Errorf("appendEscText: %q want %q", got, want)
	}
	if got, want := string(appendEscAttr(nil, in)), "a&amp;b&lt;c&gt;d&#13;e&#9;f&#10;g&quot;h\u00e9\u4e16"; got != want {
		t.Errorf("appendEscAttr: %q want %q", got, want)
	}
	if got := string(appendEscText([]byte("x"), "plain")); got != "xplain" {
		t.Errorf("appendEscText prefix: %q", got)
	}
}

// TestAppendSerializedAppends: AppendSerialized leaves what dst already
// holds in place and appends exactly the standalone rendering, and
// SizeHint covers that rendering, for every option combination and for
// every example model, so a fresh buffer sized from it is allocated once.
func TestAppendSerializedAppends(t *testing.T) {
	tapes := map[string]func(*ByteEmitter){"script": func(be *ByteEmitter) { driveEmitter(be) }}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "models", "*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("example models: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		tapes[filepath.Base(path)] = func(be *ByteEmitter) { be.CopyTree(doc) }
	}
	for name, fill := range tapes {
		be := NewByteEmitter()
		fill(be)
		for _, opt := range emitterOptionMatrix() {
			alone := be.AppendSerialized(nil, opt)
			prefix := []byte("kept|")
			got := be.AppendSerialized(prefix, opt)
			if !bytes.Equal(got[:len(prefix)], []byte("kept|")) || !bytes.Equal(got[len(prefix):], alone) {
				t.Errorf("%s %+v: appended %q after the prefix, want %q", name, opt, got, alone)
			}
			if hint := be.SizeHint(opt); hint < len(alone) {
				t.Errorf("%s %+v: SizeHint %d below the %d bytes rendered", name, opt, hint, len(alone))
			}
		}
		be.Release()
	}
}

package xmldom

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// serialize.golden freezes the output of the DOM-walking serializer,
// captured before Serialize became a replay of the ByteEmitter tape:
//   - the driveEmitter script, built as a tree, under every
//     emitterOptionMatrix option (full text);
//   - the copyTreeSrc root copied under a wrapper element, under
//     copyTreeOptions (full text);
//   - every example model under modelOptions (length and SHA-256);
//   - each model's document element as a fragment, with and without
//     indentation (length and SHA-256).
//
// Each entry is a name line followed by an indented value line.
// Regenerate with go test -run SerializeGolden -update.

const serializeGolden = "testdata/serialize.golden"

// copyTreeSrc is the document whose root TestByteEmitterCopyTreeMatches
// copies.
const copyTreeSrc = `<root a="1" b="&lt;2&gt;"><child><!-- c --><?pi data?>text &amp; more<leaf/></child>tail</root>`

var (
	copyTreeOptions = []WriteOptions{{OmitDecl: true}, {Indent: "  "}, {Method: "html"}}
	modelOptions    = []WriteOptions{{}, {Indent: "  "}, {Method: "html"}, {Method: "text"}}
)

func optLabel(o WriteOptions) string {
	return fmt.Sprintf("method=%q indent=%q omitdecl=%t public=%q system=%q",
		o.Method, o.Indent, o.OmitDecl, o.DoctypePublic, o.DoctypeSystem)
}

func digest(s string) string {
	return fmt.Sprintf("%d %x", len(s), sha256.Sum256([]byte(s)))
}

// copyTreeRoot parses copyTreeSrc and returns its document element.
func copyTreeRoot(t *testing.T) *Node {
	t.Helper()
	src, err := Parse([]byte(copyTreeSrc))
	if err != nil {
		t.Fatal(err)
	}
	return src.DocumentElement()
}

// renderSerializeGolden renders the serialize.golden listing with
// SerializeToString.
func renderSerializeGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	entry := func(name, value string) { fmt.Fprintf(&b, "%s\n  %s\n", name, value) }

	script := NewDocument()
	driveEmitter(NewTreeEmitter(script))
	for _, o := range emitterOptionMatrix() {
		entry("emitter "+optLabel(o), fmt.Sprintf("%q", SerializeToString(script, o)))
	}

	wrapped := NewDocument()
	tree := NewTreeEmitter(wrapped)
	tree.BeginElement("", "", "wrap")
	tree.CopyTree(copyTreeRoot(t))
	tree.EndElement()
	for _, o := range copyTreeOptions {
		entry("copytree "+optLabel(o), fmt.Sprintf("%q", SerializeToString(wrapped, o)))
	}

	models, err := filepath.Glob("../../examples/models/*.xml")
	if err != nil || len(models) == 0 {
		t.Fatalf("no example models: %v", err)
	}
	for _, path := range models {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		base := filepath.Base(path)
		for _, o := range modelOptions {
			entry("model "+base+" "+optLabel(o), digest(SerializeToString(doc, o)))
		}
		for _, indent := range []string{"", "  "} {
			entry(fmt.Sprintf("fragment %s indent=%q", base, indent),
				digest(SerializeToString(doc.DocumentElement(), WriteOptions{Indent: indent})))
		}
	}
	return b.String()
}

// serializeGoldenEntries reads serialize.golden as a map from entry name
// to value.
func serializeGoldenEntries(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(serializeGolden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with go test -run SerializeGolden -update): %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines)%2 != 0 {
		t.Fatalf("%s: odd number of lines", serializeGolden)
	}
	entries := make(map[string]string, len(lines)/2)
	for i := 0; i < len(lines); i += 2 {
		entries[lines[i]] = strings.TrimPrefix(lines[i+1], "  ")
	}
	return entries
}

// TestSerializeGolden pins Serialize's bytes for every serialize.golden
// case.
func TestSerializeGolden(t *testing.T) {
	got := renderSerializeGolden(t)
	if *update {
		if err := os.WriteFile(serializeGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(serializeGolden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with go test -run SerializeGolden -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: first difference at line %d\n got: %s\nwant: %s", serializeGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", serializeGolden, len(gl), len(wl))
}

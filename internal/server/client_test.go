package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/workload"
	"goldweb/internal/xmldom"
)

// clientModelXMLByClone is the reference construction of /client/model.xml:
// an editable copy of the frozen document gets the xml-stylesheet
// processing instruction before its root element and is serialized again.
func clientModelXMLByClone(frozen *xmldom.Node) []byte {
	doc := frozen.Editable()
	pi := &xmldom.Node{Type: xmldom.PINode, Name: "xml-stylesheet",
		Data: `type="text/xsl" href="/client/single.xsl"`}
	doc.InsertBefore(pi, doc.DocumentElement())
	return []byte(xmldom.SerializeToString(doc, xmldom.WriteOptions{}))
}

// viewTestModels returns every committed example model and the
// generated model sizes the load benchmarks serve, keyed by name.
func viewTestModels(t *testing.T) map[string]*core.Model {
	t.Helper()
	models := map[string]*core.Model{}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "models", "*.xml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example models: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.ModelFromXMLString(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		models[filepath.Base(f)] = m
	}
	for _, spec := range []workload.ModelSpec{
		{Facts: 1, Dims: 2, Depth: 1}, {Facts: 1, Dims: 4, Depth: 2},
		{Facts: 2, Dims: 4, Depth: 1}, {Facts: 2, Dims: 4, Depth: 2},
		{Facts: 2, Dims: 6, Depth: 2}, {Facts: 4, Dims: 6, Depth: 2},
		{Facts: 4, Dims: 8, Depth: 2}, {Facts: 4, Dims: 8, Depth: 3},
	} {
		models[spec.String()] = workload.GenModel(spec)
	}
	return models
}

// TestClientModelXMLSplice: splicing the processing instruction into the
// serialized model yields the same bytes as the clone-and-reserialize
// construction, for every committed example model and the generated
// model sizes the load benchmarks serve.
func TestClientModelXMLSplice(t *testing.T) {
	for name, m := range viewTestModels(t) {
		doc := m.ToXML()
		xmldom.Freeze(doc)
		got := clientModelXML([]byte(xmldom.SerializeToString(doc, xmldom.WriteOptions{})))
		if want := clientModelXMLByClone(doc); !bytes.Equal(got, want) {
			t.Errorf("%s: spliced client view differs\ngot:  %.120s\nwant: %.120s", name, got, want)
		}
	}
}

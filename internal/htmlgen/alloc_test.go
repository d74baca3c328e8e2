package htmlgen

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
)

// publishAllocCeiling bounds the allocations of one served-path
// publication pair of examples/models/salesdw.xml: the focused
// multi-page site plus the single page, from the frozen, validated
// canonical document with SkipValidation, as the server publishes. The
// pair measures 214 allocations on go1.24 linux/amd64; the ceiling is
// that plus 10 %.
const publishAllocCeiling = 235

// salesDW loads examples/models/salesdw.xml and returns the model and its
// frozen, validated canonical document, as the server publishes it.
func salesDW(t *testing.T) (*core.Model, *xmldom.Node) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "models", "salesdw.xml"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.ModelFromXMLString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	pub := core.ValidateAndFreeze(m.ToXML())
	if len(pub.Errors) > 0 {
		t.Fatal(pub.Errors[0])
	}
	return m, pub.Doc
}

func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values, inflating allocation counts")
	}
	m, doc := salesDW(t)
	focus := m.Facts[0].ID
	publish := func() {
		for _, opts := range []Options{
			{Mode: MultiPage, Focus: focus, SkipValidation: true},
			{Mode: SinglePage, SkipValidation: true},
		} {
			if _, err := PublishDocument(doc, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish() // compile and cache the stylesheets
	allocs := testing.AllocsPerRun(20, publish)
	t.Logf("PublishDocument(salesdw, focused multi-page + single page): %.0f allocs", allocs)
	if allocs > publishAllocCeiling {
		t.Errorf("publication made %.0f allocations, ceiling %d", allocs, publishAllocCeiling)
	}
}

// targetedAllocShare bounds the allocations of a targeted publication of
// a focused index.html (what the server runs for a /site/ miss) as a
// share of the whole focused site's. It measures 26.3 % (44 of 167);
// the bound leaves under one point of margin.
const targetedAllocShare = 0.27

func TestPublishPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values, inflating allocation counts")
	}
	m, doc := salesDW(t)
	opts := Options{Mode: MultiPage, Focus: m.Facts[0].ID, SkipValidation: true}
	ctx := context.Background()
	whole := func() {
		if _, err := PublishDocumentContext(ctx, doc, opts); err != nil {
			t.Fatal(err)
		}
	}
	page := func() {
		if _, _, err := PublishPage(ctx, nil, doc, opts, IndexName); err != nil {
			t.Fatal(err)
		}
	}
	whole() // compile and cache the stylesheet
	page()
	wholeAllocs := testing.AllocsPerRun(20, whole)
	pageAllocs := testing.AllocsPerRun(20, page)
	t.Logf("focused multi-page site: %.0f allocs; its index.html alone: %.0f allocs (%.1f %%)",
		wholeAllocs, pageAllocs, 100*pageAllocs/wholeAllocs)
	if pageAllocs > targetedAllocShare*wholeAllocs {
		t.Errorf("targeted index.html made %.0f allocations, over %.0f %% of the whole site's %.0f",
			pageAllocs, 100*targetedAllocShare, wholeAllocs)
	}
}

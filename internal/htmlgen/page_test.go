package htmlgen

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/workload"
	"goldweb/internal/xslt"
)

// pageTestModels is every sites.golden model, every committed example
// model and the eight generated sizes the load benchmarks serve.
func pageTestModels(t *testing.T) map[string]*core.Model {
	t.Helper()
	models := streamTestModels()
	models["f3d3h2"] = perFactModel()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "models", "*.xml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("example models: %v (%d files)", err, len(files))
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

// TestPublishPageMatchesFullSite checks the targeted publication against
// the whole site for every model, mode, focus and page: the same bytes,
// the same page list, and no page where the whole site has none.
func TestPublishPageMatchesFullSite(t *testing.T) {
	ctx := context.Background()
	models := pageTestModels(t)
	for _, name := range sortedModelNames(models) {
		m := models[name]
		pub := core.ValidateAndFreeze(m.ToXML())
		if len(pub.Errors) > 0 {
			t.Fatalf("%s: %v", name, pub.Errors[0])
		}
		focuses := []string{""}
		for _, f := range m.Facts {
			focuses = append(focuses, f.ID)
		}
		for _, mode := range []Mode{SinglePage, MultiPage} {
			var unfocused []string
			for _, focus := range focuses {
				opts := Options{Mode: mode, Focus: focus, SkipValidation: true}
				site, err := PublishDocument(pub.Doc, opts)
				if err != nil {
					t.Fatalf("%s %v focus=%q: %v", name, mode, focus, err)
				}
				if focus == "" {
					unfocused = site.Order
				}
				// The server gates every focus on the unfocused page set.
				for _, page := range site.Order {
					if !slices.Contains(unfocused, page) {
						t.Fatalf("%s %v focus=%q: page %s is not in the unfocused presentation", name, mode, focus, page)
					}
				}
				// Every page of the site, plus pages of the unfocused site
				// this presentation lacks and a name no site has.
				names := append(append([]string{"nope.html"}, site.Order...), unfocused...)
				for _, page := range names {
					got, err := PublishPage(ctx, pub.Doc, opts, page)
					if err != nil {
						t.Fatalf("%s %v focus=%q page %s: %v", name, mode, focus, page, err)
					}
					want, ok := site.Pages[page]
					if got.Found != ok || !bytes.Equal(got.Content, want) {
						t.Fatalf("%s %v focus=%q page %s: targeted page (found %v, %d bytes) differs from the full site's (found %v, %d bytes)",
							name, mode, focus, page, got.Found, len(got.Content), ok, len(want))
					}
					if !slices.Equal(got.Order, site.Order) {
						t.Fatalf("%s %v focus=%q page %s: order %v, want %v", name, mode, focus, page, got.Order, site.Order)
					}
				}
			}
		}
	}
}

// TestMultiPageBodiesAreLeaves pins the property the targeted run's gain
// rests on: every xsl:document body of the built-in multi-page stylesheet
// is proven to reach no other xsl:document, so it carries a skip target.
// A stylesheet edit that nests one page inside another fails here.
func TestMultiPageBodiesAreLeaves(t *testing.T) {
	sheet, err := core.MultiPageStylesheet()
	if err != nil {
		t.Fatal(err)
	}
	docs := 0
	for pc, in := range sheet.Program().Code() {
		if in.Op != xslt.OpDocBegin {
			continue
		}
		docs++
		if in.B == 0 {
			t.Errorf("pc %04d: xsl:document body is not a proven leaf (no skip target)", pc)
		}
	}
	if docs == 0 {
		t.Fatal("multi-page stylesheet has no xsl:document")
	}
}

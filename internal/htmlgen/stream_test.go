package htmlgen

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/workload"
	"goldweb/internal/xmldom"
)

// streamTestModels covers the shipped examples plus synthetic sweep sizes.
func streamTestModels() map[string]*core.Model {
	return map[string]*core.Model{
		"sales":    core.SampleSales(),
		"hospital": core.SampleHospital(),
		"f1d2h1":   workload.GenModel(workload.ModelSpec{Facts: 1, Dims: 2, Depth: 1}),
		"f2d4h2":   workload.GenModel(workload.ModelSpec{Facts: 2, Dims: 4, Depth: 2}),
	}
}

var update = flag.Bool("update", false, "rewrite testdata/sites.golden")

const sitesGolden = "testdata/sites.golden"

// writeSite renders one site in the sites.golden format: every page in
// order with its length and SHA-256, then the messages verbatim.
func writeSite(b *strings.Builder, label string, s *Site) {
	fmt.Fprintf(b, "%s\n", label)
	for _, name := range s.Order {
		fmt.Fprintf(b, "  page %s %d %x\n", name, len(s.Pages[name]), sha256.Sum256(s.Pages[name]))
	}
	for _, m := range s.Messages {
		fmt.Fprintf(b, "  message %q\n", m)
	}
}

// goldenSites publishes every stream test model in both modes, plus the
// per-fact presentations of one generated model, with publish, and
// renders the sites.golden listing.
func goldenSites(t *testing.T, publish func(doc *xmldom.Node, opts Options) (*Site, error)) string {
	t.Helper()
	var b strings.Builder
	models := streamTestModels()
	for _, name := range sortedModelNames(models) {
		doc := models[name].ToXML()
		xmldom.Freeze(doc)
		for _, mode := range []Mode{SinglePage, MultiPage} {
			site, err := publish(doc, Options{Mode: mode})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			writeSite(&b, fmt.Sprintf("%s mode=%v", name, mode), site)
		}
	}
	m := perFactModel()
	doc := m.ToXML()
	xmldom.Freeze(doc)
	for _, f := range m.Facts {
		site, err := publish(doc, Options{Mode: MultiPage, Focus: f.ID, SkipValidation: true})
		if err != nil {
			t.Fatalf("focus %s: %v", f.ID, err)
		}
		writeSite(&b, "f3d3h2 focus="+f.ID, site)
	}
	return b.String()
}

func sortedModelNames(models map[string]*core.Model) []string {
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func perFactModel() *core.Model {
	return workload.GenModel(workload.ModelSpec{Facts: 3, Dims: 3, Depth: 2})
}

// checkSitesGolden compares a goldenSites listing with sites.golden.
func checkSitesGolden(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile(sitesGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: first difference at line %d\n got: %s\nwant: %s", sitesGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", sitesGolden, len(gl), len(wl))
	}
}

// TestStreamedPublicationByteIdentical checks every page of the golden
// publications against sites.golden, which holds the pages the
// result-tree publication path produced before it was deleted.
// Regenerate with:
//
//	go test ./internal/htmlgen -run StreamedPublicationByteIdentical -update
func TestStreamedPublicationByteIdentical(t *testing.T) {
	got := goldenSites(t, PublishDocument)
	if *update {
		if err := os.WriteFile(sitesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkSitesGolden(t, got)
}

// TestStreamedPerFactFanOutByteIdentical checks the focused per-fact
// publications (Fig. 5 fan-out) against the per-fact section that ends
// sites.golden.
func TestStreamedPerFactFanOutByteIdentical(t *testing.T) {
	want, err := os.ReadFile(sitesGolden)
	if err != nil {
		t.Fatal(err)
	}
	m := perFactModel()
	sites, err := PublishPerFact(m, Options{Mode: MultiPage})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range m.Facts {
		site := sites[f.ID]
		if site == nil {
			t.Fatalf("no site for fact %s", f.ID)
		}
		writeSite(&b, "f3d3h2 focus="+f.ID, site)
	}
	if !strings.HasSuffix(string(want), b.String()) {
		t.Fatalf("per-fact sites differ from %s\n%s", sitesGolden, b.String())
	}
}

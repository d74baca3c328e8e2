package htmlgen

import (
	"bytes"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
)

// sitesEqual fails unless the two sites have identical page sets, order
// and bytes.
func sitesEqual(t *testing.T, label string, a, b *Site) {
	t.Helper()
	if len(a.Order) != len(b.Order) {
		t.Fatalf("%s: page count %d vs %d", label, len(a.Order), len(b.Order))
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("%s: order differs at %d: %s vs %s", label, i, a.Order[i], b.Order[i])
		}
	}
	for name, content := range a.Pages {
		if !bytes.Equal(content, b.Pages[name]) {
			t.Errorf("%s: page %s differs (%d vs %d bytes)", label, name, len(content), len(b.Pages[name]))
		}
	}
}

// TestPublishPerFact: the Fig. 5 fan-out yields, in both modes, one site
// per fact class, each identical to a directly focused publication and
// free of broken links.
func TestPublishPerFact(t *testing.T) {
	for _, m := range []*core.Model{core.SampleSales(), core.SampleHospital()} {
		for _, mode := range []Mode{SinglePage, MultiPage} {
			sites, err := PublishPerFact(m, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if len(sites) != len(m.Facts) {
				t.Fatalf("%s/%s: got %d sites, want %d", m.Name, mode, len(sites), len(m.Facts))
			}
			for _, f := range m.Facts {
				site := sites[f.ID]
				if site == nil {
					t.Fatalf("%s/%s: no site for fact %s", m.Name, mode, f.ID)
				}
				direct, err := Publish(m, Options{Mode: mode, Focus: f.ID})
				if err != nil {
					t.Fatal(err)
				}
				sitesEqual(t, m.Name+"/"+mode.String()+" focus "+f.ID, direct, site)
				if errs := CheckLinks(site); len(errs) > 0 {
					t.Errorf("%s/%s focus %s: broken link: %v", m.Name, mode, f.ID, errs[0])
				}
			}
		}
	}
}

// TestPublishFrozenDocumentUntouched: publishing a frozen document must
// not mutate it — defaults are applied to a working copy only.
func TestPublishFrozenDocumentUntouched(t *testing.T) {
	m := core.SampleSales()
	doc := m.ToXML()
	before := xmldom.Pretty(doc)
	xmldom.Freeze(doc)
	site, err := PublishDocument(doc, Options{Mode: MultiPage})
	if err != nil {
		t.Fatal(err)
	}
	if len(site.HTMLPages()) == 0 {
		t.Fatal("no pages generated")
	}
	if got := xmldom.Pretty(doc); got != before {
		t.Error("frozen document bytes changed during publication")
	}
	// And it must match a publication of the unfrozen original.
	plain, err := PublishDocument(m.ToXML(), Options{Mode: MultiPage})
	if err != nil {
		t.Fatal(err)
	}
	sitesEqual(t, "frozen vs unfrozen", plain, site)
}

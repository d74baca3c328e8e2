package htmlgen

import (
	"os"
	"path/filepath"
	"testing"

	"goldweb/internal/core"
)

// publishAllocCeiling bounds the allocations of one served-path
// publication pair of examples/models/salesdw.xml: the focused
// multi-page site plus the single page, from the frozen, validated
// canonical document with SkipValidation, as the server publishes. The
// pair made 3 719 allocations when every XPath step, predicate and
// one-node result built a fresh node-set slice, and 384 once results
// already in the frozen document became windows into it; the ceiling
// is 15 % of the former.
const publishAllocCeiling = 557

func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values, inflating allocation counts")
	}
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
	focus := m.Facts[0].ID
	publish := func() {
		for _, opts := range []Options{
			{Mode: MultiPage, Focus: focus, SkipValidation: true},
			{Mode: SinglePage, SkipValidation: true},
		} {
			if _, err := PublishDocument(pub.Doc, opts); err != nil {
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

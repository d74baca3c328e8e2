package xsd_test

import (
	"os"
	"path/filepath"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// validateAllocCeiling bounds the allocations of one ValidateAndFreeze of
// examples/models/salesdw.xml, about 10 % above what the validator needs
// today; a change that pushes past it has made validation heavier.
const validateAllocCeiling = 460

func TestValidateAndFreezeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values, inflating allocation counts")
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "models", "salesdw.xml"))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	docs := make([]*xmldom.Node, runs+1) // AllocsPerRun makes one extra warm-up call
	for i := range docs {
		if docs[i], err = xmldom.Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	schema := core.MustSchema()
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if res := schema.ValidateAndFreeze(docs[k], xsd.ValidateOptions{ApplyDefaults: true}); len(res.Errors) != 0 {
			t.Fatal(res.Errors[0])
		}
		k++
	})
	t.Logf("ValidateAndFreeze(salesdw.xml): %.0f allocs", allocs)
	if allocs > validateAllocCeiling {
		t.Errorf("ValidateAndFreeze(salesdw.xml) made %.0f allocations, ceiling %d", allocs, validateAllocCeiling)
	}
}

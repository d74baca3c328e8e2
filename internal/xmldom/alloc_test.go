package xmldom

import (
	"os"
	"path/filepath"
	"testing"
)

// parseAllocCeiling bounds the allocations of one Parse of
// examples/models/salesdw.xml (6.8 KB, about 500 nodes), a little above
// the 34 the parser needs today: the input's string copy, the name
// table, and node and child-slice slabs. A parser that allocates per
// node or per name blows through it at once.
const parseAllocCeiling = 40

func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "models", "salesdw.xml"))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Parse(salesdw.xml): %.0f allocs", allocs)
	if allocs > parseAllocCeiling {
		t.Errorf("Parse(salesdw.xml) made %.0f allocations, ceiling %d", allocs, parseAllocCeiling)
	}
}

package xmldom

import (
	"os"
	"path/filepath"
	"testing"
)

// parseAllocCeiling bounds the allocations of one Parse of
// examples/models/salesdw.xml (6.8 KB, about 500 nodes): the input's
// string copy, the name table, and node and child-slice slabs. It
// measures 34 allocations on go1.24 linux/amd64; the ceiling is that
// plus 10 %. A parser that allocates per node or per name blows through
// it at once.
const parseAllocCeiling = 37

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

// TestSerializeToStringAllocs pins SerializeToString at one allocation
// once its pooled tape and scratch buffer are warm: the returned string
// is the only copy of the rendered bytes.
func TestSerializeToStringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values, inflating allocation counts")
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "models", "salesdw.xml"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []WriteOptions{{}, {Indent: "  "}} {
		SerializeToString(doc, opts)
		allocs := testing.AllocsPerRun(20, func() { SerializeToString(doc, opts) })
		if allocs > 1 {
			t.Errorf("SerializeToString(salesdw.xml, %+v) made %.0f allocations, want 1", opts, allocs)
		}
	}
}

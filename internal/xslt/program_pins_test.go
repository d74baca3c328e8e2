package xslt_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xslt"
)

const programPins = "testdata/programs.sum"

// TestProgramPins pins the lowered program of every stylesheet the
// package's goldens run, as the SHA-256 of its disassembly: the two
// built-in presentations, the library example, every programs.want,
// transforms.golden and scopes.golden sheet, and the fuzz.golden seed
// sheets. A change to the compiler that moves one instruction of any of
// them shows here. Regenerate with:
//
//	go test ./internal/xslt -run ProgramPins -update
func TestProgramPins(t *testing.T) {
	var b strings.Builder
	pin := func(name string, s *xslt.Stylesheet) {
		fmt.Fprintf(&b, "%x %s\n", sha256.Sum256([]byte(s.Program().Disasm())), name)
	}
	compile := func(name, src string) {
		s, err := xslt.CompileVerified(t, src, xslt.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pin(name, s)
	}
	compile("builtin:single.xsl", core.SingleXSL)
	compile("builtin:multi.xsl", core.MultiXSL)
	library, err := os.ReadFile("../../examples/library/library.xsl")
	if err != nil {
		t.Fatal(err)
	}
	compile("examples/library/library.xsl", string(library))
	for _, c := range programCorpus {
		compile("programs.want/"+c.name, c.src)
	}
	sheets := goldenSheets(t)
	for _, name := range sortedKeys(sheets) {
		pin("transforms.golden/"+name, sheets[name])
	}
	for _, name := range sortedKeys(scopeSheets) {
		compile("scopes.golden/"+name, scopeSheets[name])
	}
	for _, sp := range fuzzGoldenSeeds() {
		compile(fmt.Sprintf("fuzz.golden/%d", sp[0]), genStylesheet(rand.New(rand.NewSource(sp[0])), false))
	}
	checkGolden(t, programPins, b.String())
}

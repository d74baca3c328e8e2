package xslt_test

import (
	"fmt"
	"testing"

	"goldweb/internal/analysis/verify"
	"goldweb/internal/xslt"
)

// init installs the static verifier that xslt.CompileVerified runs on
// every program the package's tests compile. Shape lints are warnings
// for the linter to report; an error-severity finding is a broken
// program.
func init() {
	xslt.VerifyProgram = func(p *xslt.Program) error {
		for _, f := range verify.Program(p) {
			if !f.Warning {
				return fmt.Errorf("%s", f)
			}
		}
		return nil
	}
}

// TestProgramCorpusVerifies proves every program in the golden
// disassembly corpus — the set covering every opcode the compiler can
// emit — passes the static verifier clean: structure, frame balance,
// jump tables and the IR of every reachable expression.
func TestProgramCorpusVerifies(t *testing.T) {
	for _, c := range programCorpus {
		s, err := xslt.CompileStylesheetString(c.src, xslt.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fs := verify.Program(s.Program()); len(fs) != 0 {
			t.Errorf("%s: verifier findings on healthy program:", c.name)
			for _, f := range fs {
				t.Errorf("  %s", f)
			}
		}
	}
}

// TestProgramCorpusIRBounds spot-checks that every compiled expression
// the corpus programs reach verifies individually — the same walk
// verify.Program batches, kept separate so an IR regression names the
// failing expression directly.
func TestProgramCorpusIRBounds(t *testing.T) {
	for _, c := range programCorpus {
		s, err := xslt.CompileStylesheetString(c.src, xslt.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, x := range s.Program().Exprs() {
			if err := x.VerifyIR(); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}
}

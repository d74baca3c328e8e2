package verify_test

import (
	"os"
	"path/filepath"
	"testing"

	"goldweb/internal/analysis/verify"
	"goldweb/internal/xslt"
)

// FuzzProgramVerifier mutates a healthy captured program image with
// fuzzer-chosen byte edits and asserts the verifier neither panics nor
// hangs on any corruption. Each 6-byte chunk of input encodes one edit:
// (pc, field, value) — opcode, operand A, or operand B.
func FuzzProgramVerifier(f *testing.F) {
	s, err := xslt.CompileStylesheetString(corpusSrc, xslt.CompileOptions{})
	if err != nil {
		f.Fatalf("compile: %v", err)
	}
	base := verify.Capture(s.Program())

	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 0, 0, 255})                  // clobber an opcode
	f.Add([]byte{0, 9, 1, 255, 255, 255})              // operand A out of range
	f.Add([]byte{0, 12, 2, 0, 0, 200})                 // jump far away
	f.Add([]byte{0, 1, 0, 0, 0, 17, 0, 2, 1, 0, 0, 9}) // two stacked edits
	for pc, in := range base.Code {
		if in.Op == xslt.OpDocBegin && in.B != 0 {
			// Pull a doc skip back onto its doc-end.
			b := in.B - 1 + 1<<16
			f.Add([]byte{byte(pc >> 8), byte(pc), 2, byte(b >> 16), byte(b >> 8), byte(b)})
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		im := &verify.Image{
			Code:        append([]xslt.Instr(nil), base.Code...),
			Tables:      base.Tables,
			Entries:     append([]int(nil), base.Entries...),
			CallTargets: append([]int(nil), base.CallTargets...),
		}
		for i := 0; i+6 <= len(data) && i < 16*6; i += 6 {
			pc := (int(data[i])<<8 | int(data[i+1])) % len(im.Code)
			v := int32(data[i+3])<<16 | int32(data[i+4])<<8 | int32(data[i+5])
			switch data[i+2] % 3 {
			case 0:
				im.Code[pc].Op = xslt.Opcode(v)
			case 1:
				im.Code[pc].A = v - 1<<16 // exercise negatives too
			case 2:
				im.Code[pc].B = v - 1<<16
			}
		}
		// The only contract under corruption: terminate without panicking.
		_ = im.Check()
	})
}

// FuzzCompileStylesheet feeds raw stylesheet text to the compiler, as
// `goldweb transform` does with a user's file. The invariant: the text
// either fails to compile, or it compiles to a program the verifier
// accepts with no findings at all. The target compiles and verifies but
// never runs the program: template recursion is bounded in depth, not in
// work, so a transform of fuzzed text could run without end.
func FuzzCompileStylesheet(f *testing.F) {
	// Small seeds only: the fuzzer minimizes every input that finds new
	// coverage, which takes seconds on a builtin stylesheet's 10-20 KiB.
	f.Add(corpusSrc)
	sheets, err := filepath.Glob("../testdata/stylesheets/*.xsl")
	if err != nil || len(sheets) == 0 {
		f.Fatalf("no lint corpus stylesheets: %v", err)
	}
	for _, path := range sheets {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			return
		}
		s, err := xslt.CompileStylesheetString(src, xslt.CompileOptions{})
		if err != nil {
			return
		}
		if fs := verify.Program(s.Program()); len(fs) > 0 {
			t.Fatalf("compiled program has %d verifier findings, first: %s\nsource:\n%s", len(fs), fs[0], src)
		}
	})
}

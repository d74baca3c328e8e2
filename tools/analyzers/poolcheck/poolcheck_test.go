package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles poolcheck into a temp dir and returns the binary path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "poolcheck")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building poolcheck: %v\n%s", err, out)
	}
	return bin
}

// vet runs `go vet -vettool` on one package of the testdata module and
// returns its combined output and whether it failed.
func vet(t *testing.T, tool, pkg string) (string, bool) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+tool, "./"+pkg)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	return string(out), err != nil
}

func TestVetToolFindsSeededLeaks(t *testing.T) {
	tool := buildTool(t)
	out, failed := vet(t, tool, "leak")
	if !failed {
		t.Fatalf("vet on seeded leaks must fail; output:\n%s", out)
	}
	for _, want := range []string{
		`leak.go:18:3: return without releasing "b" acquired from bufPool.Get() at line 16`,
		`leak.go:26:2: "b" acquired from bufPool.Get() is never released`,
		`leak.go:50:3: return without releasing "c" acquired from getConn() at line 47`,
		`leak.go:64:2: "e" acquired from NewEmitter() is never released`,
		`leak.go:74:3: return without releasing "f" acquired from framepool.GetFrame() at line 71`,
		`leak.go:81:2: "b" acquired from bufPool.Get() is never released`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing finding %q in output:\n%s", want, out)
		}
	}
}

func TestVetToolAcceptsCleanPackage(t *testing.T) {
	tool := buildTool(t)
	out, failed := vet(t, tool, "clean")
	if failed {
		t.Fatalf("vet on clean package must pass; output:\n%s", out)
	}
}

// The repo itself must be poolcheck-clean: the PR-3 pooled buffers and
// xpath-context free lists are exactly where these leaks would hide.
func TestVetToolOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole repo under vet")
	}
	tool := buildTool(t)
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("poolcheck findings in the repo: %v\n%s", err, out)
	}
}

// Command poolcheck is a go vet tool (for -vettool) that flags
// sync.Pool and free-list acquisitions whose value is not released on
// every return path of the acquiring function.
//
// Three acquisition shapes are recognised:
//
//   - v := pool.Get() on a sync.Pool (released by pool.Put(v))
//   - v := getFoo(...) by naming convention (released by putFoo(v) or
//     any sync.Pool Put(v))
//   - v := NewFoo(...) where v's type has a Release method
//     (released by v.Release())
//
// A path is also considered safe when ownership demonstrably leaves the
// function: the value is returned, stored into a field, map, slice or
// global, aliased to another variable, captured by a closure, or sent on
// a channel.
//
// The command speaks the cmd/go vet tool protocol itself (-V=full,
// -flags, and a vet .cfg file argument) so it runs under
// `go vet -vettool=` with no dependency outside the standard library.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// vetConfig mirrors the fields of cmd/go's vet .cfg file that the
// checker needs; unknown fields are ignored.
type vetConfig struct {
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	log.SetFlags(0)
	progname := filepath.Base(os.Args[0])
	log.SetPrefix(progname + ": ")

	// cmd/go interrogates the tool twice before handing it work: once
	// for a version stamp (build cache key) and once for its flags.
	versionFlag := flag.String("V", "", "print version and exit (cmd/go protocol)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (cmd/go protocol)")
	flag.Parse()
	if *versionFlag != "" {
		if *versionFlag != "full" {
			log.Fatalf("unsupported -V mode %q", *versionFlag)
		}
		printVersion(progname)
		return
	}
	if *flagsFlag {
		fmt.Println("[]")
		return
	}
	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		log.Fatalf("usage: invoked by go vet as `go vet -vettool=%s`", progname)
	}
	diags, err := run(args[0])
	if err != nil {
		log.Fatal(err)
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		os.Exit(2)
	}
}

// printVersion emulates the x/tools unitchecker version line, which
// cmd/go parses to derive a content-addressed tool ID.
func printVersion(progname string) {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%x\n", progname, h.Sum(nil))
}

func run(cfgPath string) ([]string, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}
	// Facts must exist for downstream packages even though poolcheck
	// produces none; dependency-only invocations stop here.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer:  imp,
		GoVersion: versionOnly(cfg.GoVersion),
		Error:     func(error) {}, // keep going; first error returned below
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	if _, err := tc.Check(cfg.ImportPath, fset, files, info); err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}

	var diags []string
	for _, f := range files {
		// Leaking a pooled object in a test is harmless noise.
		if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		diags = append(diags, checkFile(fset, f, info)...)
	}
	sort.Strings(diags)
	return diags, nil
}

// versionOnly strips the vet config's GoVersion ("go1.24.0") down to the
// language version types.Config accepts ("go1.24").
func versionOnly(v string) string {
	if !strings.HasPrefix(v, "go") {
		return ""
	}
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return v
	}
	return parts[0] + "." + parts[1]
}

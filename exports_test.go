package goldweb

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers of internal/ that no
// non-test file references but that stay, each with its reason. A key
// is a package path below goldweb/internal/ and a name joined by dots:
// "xsd.ValidationWalks" for a package-level identifier,
// "server.Shell.MuxHandler" for a method. A bare package path
// ("faultinject") covers the whole package.
var exportAllowlist = map[string]string{
	"faultinject": "a test seam by design: the chaos and soak tests inject faults through it",

	"server.Shell.MuxHandler": "the ServeMux-only front the differential routing fuzzers compare Handler against",
	"server.Server.Handler":   "the http.Handler of a facade Server, for programs that mount it in their own mux",

	"xsd.ValidationWalks": "the validation-walk counter that the planned per-stage timing record reads",
	"workload.GenData":    "the dataset generator the root bench_test.go OLAP benchmarks read",

	"olap.Cube.Slice":     "one of the paper's four OLAP operations (roll-up, drill-down, slice, dice) that README and DESIGN.md claim",
	"olap.Cube.DrillDown": "one of the paper's four OLAP operations (roll-up, drill-down, slice, dice) that README and DESIGN.md claim",

	"xpath.AxisFollowing": "a member of the Axis enum, which mirrors the engine's axis set; values arrive by conversion, not by name",
	"xpath.AxisPreceding": "a member of the Axis enum, which mirrors the engine's axis set; values arrive by conversion, not by name",

	"xpath.MustCompile":         "a test helper shared by the xpath, xslt, cmd/goldweb and root tests",
	"xpath.NewContext":          "a test helper shared by the xpath and root tests",
	"xsd.MustParseSchemaString": "a test helper shared by the xsd and analysis tests",
}

// TestInternalExportsHaveProductionCallers fails on an exported
// package-level identifier or method of internal/ that no non-test file
// of the root module or of bench/ references: production code holds only
// what production calls. Such a name is deleted, moved into a _test.go
// file, or kept in exportAllowlist with a reason. Methods that implement
// an interface (Error, String, ServeHTTP, the xmldom.Emitter methods) are
// called through it and are never findings.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	pkgs, exports := listPackages(t, ".")
	benchPkgs, benchExports := listPackages(t, "bench")
	pkgs = append(pkgs, benchPkgs...)
	for path, file := range benchExports {
		if _, ok := exports[path]; !ok {
			exports[path] = file
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(file)
	})

	// Every reference a non-test file makes, keyed as exportKey keys it.
	used := map[string]bool{}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		for _, obj := range info.Uses {
			if key := exportKey(obj); key != "" {
				used[key] = true
			}
		}
	}

	// The exported surface of internal/, read from the export data so
	// that its types are the ones the interfaces below are written in.
	var defs []types.Object
	var ifaces []*types.Interface
	for path := range exports {
		pkg, err := imp.Import(path)
		if err != nil {
			t.Fatalf("importing %s: %v", path, err)
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, isType := obj.(*types.TypeName)
			if it, ok := obj.Type().Underlying().(*types.Interface); ok && isType && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
			if !strings.HasPrefix(path, internalPrefix) {
				continue
			}
			if obj.Exported() {
				defs = append(defs, obj)
			}
			if named, ok := obj.Type().(*types.Named); ok && isType && !tn.IsAlias() {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						defs = append(defs, m)
					}
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	allowed := func(name string) bool {
		for k := range exportAllowlist {
			if name == k || strings.HasPrefix(name, k+".") {
				return true
			}
		}
		return false
	}
	var findings []string
	seenAllow := map[string]bool{}
	for _, obj := range defs {
		key := exportKey(obj)
		if used[key] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && implementsInterface(fn, ifaces) {
			continue
		}
		name := strings.TrimPrefix(key, internalPrefix)
		if allowed(name) {
			seenAllow[name] = true
			continue
		}
		findings = append(findings, name)
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("%s: exported, but only tests reference it: delete it, move it into a _test.go file, or add it to exportAllowlist with a reason", f)
	}

	for k, reason := range exportAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("exportAllowlist[%q] gives no reason", k)
		}
		if _, ok := exports[internalPrefix+k]; ok {
			continue // a whole package
		}
		if !seenAllow[k] {
			t.Errorf("exportAllowlist[%q]: no such exported name, or production code references it; drop the entry", k)
		}
	}
}

const internalPrefix = "goldweb/internal/"

// listedPackage is the part of `go list -json` the export check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// listPackages runs `go list -export -deps` over the module in dir and
// returns the module's own packages and the export data file of every
// package they reach, the standard library included.
func listPackages(t *testing.T, dir string) ([]listedPackage, map[string]string) {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, exports
}

// exportKey names a package-level object "path.Name" and a method
// "path.Type.Name"; it returns "" for anything else (fields, locals,
// interface methods, objects of no package).
func exportKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return o.Pkg().Path() + "." + o.Name()
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || types.IsInterface(named) {
			return ""
		}
		return o.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + o.Name()
	case *types.Var, *types.Const, *types.TypeName:
		if obj.Parent() != obj.Pkg().Scope() {
			return ""
		}
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

// implementsInterface reports whether fn's receiver type, or a pointer
// to it, implements an interface with a method of fn's name.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
			continue
		}
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

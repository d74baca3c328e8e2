package xsd

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"goldweb/internal/xmldom"
)

// Resolver fetches the bytes of a schema document by location. Locations
// are slash-separated paths after relative-reference resolution against
// the including document's directory.
type Resolver func(location string) ([]byte, error)

// Loader compiles xs:import/xs:include graphs into a single Schema. The
// zero value is not useful; construct one with a Resolver (FileResolver
// for disk-rooted loads, or a map-backed resolver in tests).
type Loader struct {
	// Resolve fetches a schema document by location. Required.
	Resolve Resolver
}

// FileResolver resolves locations as filesystem paths relative to root
// (or as-is when root is empty). Locations are slash paths; they are
// converted for the host OS.
func FileResolver(root string) Resolver {
	return func(location string) ([]byte, error) {
		p := filepath.FromSlash(location)
		if root != "" && !filepath.IsAbs(p) {
			p = filepath.Join(root, p)
		}
		return os.ReadFile(p)
	}
}

// LoadSchemaFile compiles the schema rooted at path, following
// xs:include and xs:import directives relative to each document's
// directory, into one Schema.
func LoadSchemaFile(pathname string) (*Schema, error) {
	dir, base := filepath.Split(pathname)
	ld := Loader{Resolve: FileResolver(dir)}
	return ld.Load(filepath.ToSlash(base))
}

// Load compiles the schema graph rooted at location. Every reachable
// document contributes its global declarations to one Schema; a document
// included from several places is compiled once (which also makes
// include cycles benign). Errors carry the location of the offending
// document.
func (l *Loader) Load(location string) (*Schema, error) {
	if l.Resolve == nil {
		return nil, fmt.Errorf("xsd: Loader has no Resolver")
	}
	s := newSchema()
	loaded := map[string]bool{}
	if err := l.load(s, location, "", loaded); err != nil {
		return nil, err
	}
	if err := s.resolve(); err != nil {
		return nil, err
	}
	return s, nil
}

// load fetches, parses and accumulates one document, then recurses into
// its import/include directives depth-first.
func (l *Loader) load(s *Schema, location, fromFile string, loaded map[string]bool) error {
	norm := normalizeLocation(location)
	if loaded[norm] {
		return nil // already compiled: shared includes and cycles are benign
	}
	loaded[norm] = true
	src, err := l.Resolve(norm)
	if err != nil {
		msg := fmt.Sprintf("cannot resolve schema location %q: %s", location, err)
		if fromFile != "" {
			msg = fmt.Sprintf("cannot resolve schema location %q (referenced from %s): %s", location, fromFile, err)
		}
		return &SchemaError{File: fromFile, Msg: msg}
	}
	doc, err := xmldom.ParseString(string(src))
	if err != nil {
		return &SchemaError{File: norm, Msg: "parse error: " + err.Error()}
	}
	var refs []*xmldom.Node
	if err := s.parseInto(doc, norm, &refs); err != nil {
		return err
	}
	for _, ref := range refs {
		loc := ref.AttrValue("schemaLocation")
		if loc == "" {
			if ref.Name == "include" {
				return &SchemaError{File: norm, Node: ref, Msg: "include requires a schemaLocation"}
			}
			continue // xs:import without a location declares intent only
		}
		if err := l.load(s, resolveRef(norm, loc), norm, loaded); err != nil {
			return err
		}
	}
	return nil
}

// resolveRef resolves a schemaLocation reference against the directory
// of the document that contains it.
func resolveRef(base, ref string) string {
	if path.IsAbs(ref) || strings.Contains(ref, "://") {
		return ref
	}
	dir := path.Dir(base)
	if dir == "." {
		return ref
	}
	return path.Join(dir, ref)
}

// normalizeLocation collapses "."/".." segments so the same document
// reached through different include chains is loaded once.
func normalizeLocation(loc string) string {
	if strings.Contains(loc, "://") {
		return loc
	}
	return path.Clean(loc)
}

// SourceFiles lists the distinct locations that contributed declarations
// to the schema (sorted; empty for single-document parses with no
// location).
func (s *Schema) SourceFiles() []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range s.fileByDoc {
		if f != "" && !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

package server

import (
	"goldweb/internal/artifact"
	"goldweb/internal/htmlgen"
)

// publishedSite is a presentation frozen for the edge: every page of
// the htmlgen.Site interned as a content-addressed artifact, so the
// serving path answers conditional requests from the hash-keyed ETag
// and writes pre-frozen (optionally precompressed) bytes without
// touching the publication pipeline again.
//
// Interning is what makes hot swaps and republishes cheap: a republish
// whose bytes did not change resolves to the same artifacts while any
// holder keeps them — same ETags (clients keep their 304s across
// generations), the gzip variants already built, and no doubled memory
// while an old and a new generation briefly coexist during a staged
// swap.
type publishedSite struct {
	pages map[string]*artifact.Artifact
	// size is the summed identity size — the siteCache accounting unit.
	size int64
}

// newPublishedSite interns every page of site into the store.
func newPublishedSite(store *artifact.Store, site *htmlgen.Site) *publishedSite {
	p := &publishedSite{
		pages: make(map[string]*artifact.Artifact, len(site.Pages)),
	}
	for name, content := range site.Pages {
		a := store.Intern(contentType(name), content)
		p.pages[name] = a
		p.size += a.Size()
	}
	return p
}

// page returns the artifact for one page name, or nil.
func (p *publishedSite) page(name string) *artifact.Artifact { return p.pages[name] }

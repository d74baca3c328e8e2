package server

import (
	"goldweb/internal/artifact"
)

// publishedSite is a presentation frozen for the edge: every page of
// an htmlgen.Site interned as a content-addressed artifact, so the
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

// newPublishedSite interns every page into the store. The store keeps
// none of the page slices, so they may live in a buffer the caller
// reuses once this returns.
func newPublishedSite(store *artifact.Store, pages map[string][]byte) *publishedSite {
	p := &publishedSite{
		pages: make(map[string]*artifact.Artifact, len(pages)),
	}
	for name, content := range pages {
		a := store.Intern(contentType(name), content)
		p.pages[name] = a
		p.size += a.Size()
	}
	return p
}

// page returns the artifact for one page name, or nil.
func (p *publishedSite) page(name string) *artifact.Artifact { return p.pages[name] }

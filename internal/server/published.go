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
	// pages maps every page name of a whole site to its artifact; nil
	// in a one-page entry.
	pages map[string]*artifact.Artifact
	// name and one are the page of a one-page entry (newPublishedPage):
	// a request-path miss caches its page without building a map.
	name string
	one  *artifact.Artifact
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

// newPublishedPage interns one page as an entry of its own, as a
// request-path miss publishes it. The store keeps no slice of content.
func newPublishedPage(store *artifact.Store, name string, content []byte) *publishedSite {
	a := store.Intern(contentType(name), content)
	return &publishedSite{name: name, one: a, size: a.Size()}
}

// page returns the artifact for one page name, or nil.
func (p *publishedSite) page(name string) *artifact.Artifact {
	if p.pages != nil {
		return p.pages[name]
	}
	if name == p.name {
		return p.one
	}
	return nil
}

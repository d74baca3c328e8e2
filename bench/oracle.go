package main

import (
	"fmt"
	"strings"
	"sync"

	"goldweb/internal/artifact"
	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
)

// presKey names one presentation of a model, the unit the server
// caches: a mode and an optional focus fact class.
type presKey struct {
	mode  htmlgen.Mode
	focus string
}

func (k presKey) String() string {
	if k.focus == "" {
		return k.mode.String()
	}
	return k.mode.String() + "?focus=" + k.focus
}

// oracle computes what the catalog must serve, independently of the
// catalog: each (model, revision, presentation) is published straight
// through htmlgen.Publish and every page wrapped with artifact.New, whose
// ETag is the content hash the served response must carry.
type oracle struct {
	models []*model

	mu    sync.Mutex
	sites map[siteID]*expectedSite
}

type siteID struct {
	model, stamp int
	key          presKey
}

// expectedSite is one published presentation: its pages in generation
// order and the artifact each must be served as.
type expectedSite struct {
	order []string
	pages map[string]*artifact.Artifact
}

func newOracle(models []*model) *oracle {
	return &oracle{models: models, sites: map[siteID]*expectedSite{}}
}

// site returns the expected pages of one presentation, publishing it on
// first use.
func (o *oracle) site(model, stamp int, key presKey) (*expectedSite, error) {
	id := siteID{model, stamp, key}
	o.mu.Lock()
	s, ok := o.sites[id]
	o.mu.Unlock()
	if ok {
		return s, nil
	}
	name := o.models[model].name
	m, err := core.ModelFromXMLString(string(o.models[model].source(stamp)))
	if err != nil {
		return nil, fmt.Errorf("oracle: %s revision %d: %w", name, stamp, err)
	}
	site, err := htmlgen.Publish(m, htmlgen.Options{Mode: key.mode, Focus: key.focus})
	if err != nil {
		return nil, fmt.Errorf("oracle: %s revision %d %s: %w", name, stamp, key, err)
	}
	s = &expectedSite{order: site.Order, pages: make(map[string]*artifact.Artifact, len(site.Pages))}
	for page, body := range site.Pages {
		s.pages[page] = artifact.New(contentType(page), body)
	}
	o.mu.Lock()
	o.sites[id] = s
	o.mu.Unlock()
	return s, nil
}

// page returns one expected page artifact.
func (o *oracle) page(model, stamp int, key presKey, page string) (*artifact.Artifact, error) {
	s, err := o.site(model, stamp, key)
	if err != nil {
		return nil, err
	}
	a := s.pages[page]
	if a == nil {
		return nil, fmt.Errorf("oracle: %s revision %d %s has no page %q", o.models[model].name, stamp, key, page)
	}
	return a, nil
}

// contentType mirrors the media types the server assigns to published
// pages; the content type is part of the hash an ETag is made from.
func contentType(page string) string {
	switch {
	case strings.HasSuffix(page, ".css"):
		return "text/css; charset=utf-8"
	case strings.HasSuffix(page, ".html"):
		return "text/html; charset=utf-8"
	case strings.HasSuffix(page, ".xml"), strings.HasSuffix(page, ".xsl"):
		return "text/xml; charset=utf-8"
	}
	return "application/octet-stream"
}

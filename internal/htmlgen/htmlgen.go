// Package htmlgen is the publication pipeline of the system: it validates
// a goldmodel document against the canonical schema and applies the
// embedded XSLT stylesheets to produce web presentations — either a
// single HTML page with internal links (the paper's XSLT 1.0 approach) or
// a collection of linked pages, one per class (the XSLT 1.1 xsl:document
// approach of Fig. 6).
package htmlgen

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
	"goldweb/internal/xslt"
)

// Mode selects the presentation style.
type Mode int

// The two presentation modes of §4.
const (
	// SinglePage produces one HTML page with internal links
	// (XSLT 1.0, "an only HTML page with internal links").
	SinglePage Mode = iota
	// MultiPage produces a collection of linked HTML pages whose number
	// depends on the number of fact and dimension classes (XSLT 1.1).
	MultiPage
)

func (m Mode) String() string {
	if m == SinglePage {
		return "single-page"
	}
	return "multi-page"
}

// Options configure a publication run.
type Options struct {
	Mode Mode
	// Focus restricts the presentation to one fact class id and the
	// dimensions it aggregates (the per-fact presentations of Fig. 5).
	Focus string
	// SkipValidation publishes without the schema-validation step.
	SkipValidation bool
}

// Site is a generated presentation: page name → serialized content.
type Site struct {
	Pages map[string][]byte
	// Order lists the page names in generation order (index first).
	Order []string
	// Messages holds any xsl:message output from the transformation.
	Messages []string
}

// IndexName is the name of the entry page.
const IndexName = "index.html"

// Page returns a page's content, or nil.
func (s *Site) Page(name string) []byte { return s.Pages[name] }

// HTMLPages returns the names of the HTML pages in order.
func (s *Site) HTMLPages() []string {
	var out []string
	for _, name := range s.Order {
		if strings.HasSuffix(name, ".html") {
			out = append(out, name)
		}
	}
	return out
}

// Publish renders a model.
func Publish(m *core.Model, opts Options) (*Site, error) {
	return PublishDocument(m.ToXML(), opts)
}

// FocusTargets returns the set of fact class ids that are valid Focus
// values for the model. Serving layers use it to reject an unknown
// ?focus= before it reaches the publication pipeline (or a cache).
func FocusTargets(m *core.Model) map[string]bool {
	set := make(map[string]bool, len(m.Facts))
	for _, f := range m.Facts {
		set[f.ID] = true
	}
	return set
}

// TotalBytes reports the summed size of every generated page — a cheap
// read-side measure used for cache accounting and logging.
func (s *Site) TotalBytes() int {
	n := 0
	for _, content := range s.Pages {
		n += len(content)
	}
	return n
}

// PublishDocument renders a goldmodel XML document. The document is
// validated first (unless disabled) with schema defaults applied, exactly
// the server-side pipeline of §6.
//
// Frozen (xmldom.Freeze) documents are published as-is — validation runs
// on an Editable copy because applying defaults mutates, and that copy
// is what gets transformed so defaults still reach the presentation.
// An unfrozen document is frozen in place, by validation or else by the
// transformation, which runs on frozen trees only; pass Editable() first
// if the tree must stay mutable afterwards.
func PublishDocument(doc *xmldom.Node, opts Options) (*Site, error) {
	return PublishDocumentContext(context.Background(), doc, opts)
}

// PublishDocumentContext is PublishDocument under a context: the
// publication is abandoned at the next stage boundary (validate,
// compile, transform, assemble) once ctx is canceled. A transform
// already in flight runs to completion — stages are the cancellation
// granularity — so callers staging a swap get a bounded abort without
// the engine checking a context per node.
func PublishDocumentContext(ctx context.Context, doc *xmldom.Node, opts Options) (*Site, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("htmlgen: publication canceled: %w", err)
	}
	work, sheet, params, err := preparePublication(doc, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("htmlgen: publication canceled: %w", err)
	}
	// The transform renders every page straight to bytes (no intermediate
	// result DOM), so there is nothing left to fan out; PublishPerFact
	// parallelizes across focuses.
	res, err := sheet.TransformToBuffers(work, params)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("htmlgen: publication canceled: %w", err)
	}
	site := &Site{
		Pages:    make(map[string][]byte, len(res.DocumentOrder)+2),
		Messages: res.Messages,
	}
	site.Pages[IndexName] = res.Main
	site.Order = append(site.Order, IndexName)
	for _, href := range res.DocumentOrder {
		site.Pages[href] = res.Documents[href]
		site.Order = append(site.Order, href)
	}
	site.Pages[styleName] = []byte(core.StyleCSS)
	site.Order = append(site.Order, styleName)
	return site, nil
}

// Page is one page of a presentation, rendered by PublishPage.
type Page struct {
	// Content is the page, byte-identical to the same page of the site
	// PublishDocumentContext builds; nil unless Found.
	Content []byte
	// Found reports whether the presentation has the page.
	Found bool
	// Order lists every page name of the presentation: the Order of the
	// whole site.
	Order []string
	// Messages holds the xsl:message output of the stylesheet bodies the
	// targeted run executed (see xslt.Stylesheet.TransformPage).
	Messages []string
}

// PublishPage renders one page of the presentation PublishDocumentContext
// would build for doc and opts, with a targeted run of the stylesheet:
// the bodies of the other pages are skipped (or, where the stylesheet
// cannot prove them leaves, discarded), so the cost is close to that of
// the one page. Validation, freezing and cancellation are as for
// PublishDocumentContext.
func PublishPage(ctx context.Context, doc *xmldom.Node, opts Options, page string) (*Page, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("htmlgen: publication canceled: %w", err)
	}
	work, sheet, params, err := preparePublication(doc, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("htmlgen: publication canceled: %w", err)
	}
	target := page
	if page == IndexName {
		target = "" // the principal output
	}
	res, err := sheet.TransformPage(work, params, target)
	if err != nil {
		return nil, err
	}
	p := &Page{
		Content:  res.Page,
		Found:    res.Found,
		Order:    make([]string, 0, len(res.DocumentOrder)+2),
		Messages: res.Messages,
	}
	p.Order = append(append(p.Order, IndexName), res.DocumentOrder...)
	p.Order = append(p.Order, styleName)
	if page == styleName {
		p.Content, p.Found = []byte(core.StyleCSS), true
	}
	return p, nil
}

// preparePublication validates and freezes the document (the transform
// freezes it when validation is skipped) and resolves the stylesheet and
// its parameters.
func preparePublication(doc *xmldom.Node, opts Options) (*xmldom.Node, *xslt.Stylesheet, map[string]xpath.Value, error) {
	work := doc
	if !opts.SkipValidation {
		if work.Frozen() {
			work = doc.Editable()
		}
		if errs := core.ValidateAndFreeze(work).Errors; len(errs) > 0 {
			return nil, nil, nil, fmt.Errorf("htmlgen: document is invalid: %v (%d problems)", errs[0], len(errs))
		}
	}
	var sheet *xslt.Stylesheet
	var err error
	if opts.Mode == MultiPage {
		sheet, err = core.MultiPageStylesheet()
	} else {
		sheet, err = core.SinglePageStylesheet()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	// The stylesheets' css parameter defaults to styleName.
	return work, sheet, map[string]xpath.Value{"focus": xpath.String(opts.Focus)}, nil
}

// styleName is the page the embedded style sheet is written to.
const styleName = "style.css"

// PublishPerFact renders the per-fact presentations of Fig. 5: one
// focused site per fact class, keyed by fact id. The model document is
// validated and frozen once, then the independent publications fan out
// over min(GOMAXPROCS, facts) workers, sharing the frozen document and
// the cached compiled stylesheet across goroutines.
func PublishPerFact(m *core.Model, opts Options) (map[string]*Site, error) {
	doc := m.ToXML()
	if opts.SkipValidation {
		xmldom.Freeze(doc)
	} else if errs := core.ValidateAndFreeze(doc).Errors; len(errs) > 0 {
		return nil, fmt.Errorf("htmlgen: document is invalid: %v (%d problems)", errs[0], len(errs))
	}
	facts := make([]string, 0, len(m.Facts))
	for _, f := range m.Facts {
		facts = append(facts, f.ID)
	}
	sites := make([]*Site, len(facts))
	errs := make([]error, len(facts))
	w := min(runtime.GOMAXPROCS(0), len(facts))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o := opts
				o.Focus = facts[i]
				o.SkipValidation = true
				sites[i], errs[i] = PublishDocument(doc, o)
			}
		}()
	}
	for i := range facts {
		next <- i
	}
	close(next)
	wg.Wait()
	out := make(map[string]*Site, len(facts))
	for i, id := range facts {
		if errs[i] != nil {
			return nil, fmt.Errorf("htmlgen: focus %s: %w", id, errs[i])
		}
		out[id] = sites[i]
	}
	return out, nil
}

// WriteTo writes every page of the site below dir, creating it if needed.
func (s *Site) WriteTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, content := range s.Pages {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ---- link integrity ----

// LinkError is one broken link found by CheckLinks.
type LinkError struct {
	Page string
	Href string
	Msg  string
}

func (e LinkError) Error() string {
	return fmt.Sprintf("%s: link %q: %s", e.Page, e.Href, e.Msg)
}

var (
	hrefRe = regexp.MustCompile(`href="([^"]*)"`)
	idRe   = regexp.MustCompile(`(?:id|name)="([^"]*)"`)
)

// CheckLinks verifies that every internal link of the site resolves: page
// links point at generated pages and fragment links at anchors within the
// target page. External links (with a scheme) are ignored.
func CheckLinks(s *Site) []LinkError {
	anchors := map[string]map[string]bool{}
	for name, content := range s.Pages {
		if !strings.HasSuffix(name, ".html") {
			continue
		}
		set := map[string]bool{}
		for _, m := range idRe.FindAllStringSubmatch(string(content), -1) {
			set[m[1]] = true
		}
		anchors[name] = set
	}
	var errs []LinkError
	pages := make([]string, 0, len(s.Pages))
	for name := range s.Pages {
		pages = append(pages, name)
	}
	sort.Strings(pages)
	for _, page := range pages {
		if !strings.HasSuffix(page, ".html") {
			continue
		}
		for _, m := range hrefRe.FindAllStringSubmatch(string(s.Pages[page]), -1) {
			href := m[1]
			if href == "" || strings.Contains(href, "://") || strings.HasPrefix(href, "mailto:") {
				continue
			}
			target, frag := href, ""
			if i := strings.IndexByte(href, '#'); i >= 0 {
				target, frag = href[:i], href[i+1:]
			}
			if target == "" {
				target = page // same-page fragment
			}
			if _, ok := s.Pages[target]; !ok {
				errs = append(errs, LinkError{Page: page, Href: href, Msg: "target page not generated"})
				continue
			}
			if frag != "" && strings.HasSuffix(target, ".html") {
				if !anchors[target][frag] {
					errs = append(errs, LinkError{Page: page, Href: href, Msg: "missing anchor #" + frag})
				}
			}
		}
	}
	return errs
}

// Package artifact is the content-addressed layer between the
// publication pipeline (htmlgen) and the HTTP handlers: every published
// byte sequence becomes an immutable Artifact carrying a strong
// content hash (SHA-256) that doubles as its ETag, plus lazily
// materialized precompressed variants selected by Accept-Encoding.
//
// The design goal is CDN discipline on the hot path: a warm request is
// one header assignment batch and one w.Write of pre-frozen bytes — no
// per-request compression, no per-request allocation — and a
// conditional revalidation (If-None-Match) is a 304 with zero body and
// zero allocations.
//
// Artifacts are interned in a Store keyed by content hash, so two
// publications that produce byte-identical pages (a catalog hot swap
// whose source change does not reach every page, or a page republished
// after the presentation cache evicted it) share one Artifact while
// either is held: the ETag is stable across generations — clients keep
// their 304s — memory does not double during staged swaps, and the gzip
// variant is built once. The store holds its artifacts weakly, so
// nothing is returned to it: the garbage collector bounds it.
package artifact

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"weak"
)

// GzipLevel is the compression level variants are built with. Variants
// are materialized once per artifact (never per request), and the Store
// hands a republished page the artifact that is still reachable with
// its variant, so the expensive end of the scale is paid once per
// content while anything holds it.
const GzipLevel = gzip.BestCompression

// MinGzipSize is the identity size below which no gzip variant is
// built: the ~20-byte gzip framing plus the Vary-keyed cache split is
// not worth it for tiny payloads.
const MinGzipSize = 128

// CacheControl is the caching policy every artifact response carries:
// any cache may store the page, but it must revalidate — which the
// hash-keyed ETag answers with a free 304 for unchanged content.
const CacheControl = "public, max-age=0, must-revalidate"

// Shared header value slices, pre-allocated once so the serving path
// assigns them into the response header map without allocating.
var (
	cacheControlVal = []string{CacheControl}
	varyVal         = []string{"Accept-Encoding"}
	gzipEncVal      = []string{"gzip"}
)

// Artifact is one immutable published byte sequence plus its serving
// metadata. Create with New or Store.Intern; never mutate the
// underlying bytes afterwards (the hash, ETag and variants all freeze
// the content at construction).
type Artifact struct {
	body []byte
	sum  [sha256.Size]byte
	etag string // strong ETag, quotes included

	// Pre-rendered single-value header slices: assigning a prebuilt
	// []string into the header map is allocation-free on the warm path.
	etagVal  []string
	ctypeVal []string
	clenVal  []string

	// compressible gates the gzip variant by content type; the variant
	// itself is built on first demand under gzOnce. gz == nil after the
	// Once means "not worthwhile" (incompressible or already tiny).
	compressible bool
	gzOnce       sync.Once
	gz           []byte
	gzClenVal    []string
}

// New builds an artifact outside any store — for process-static content
// like embedded stylesheets and schemas.
func New(contentType string, body []byte) *Artifact {
	return newArtifact(contentType, body, hashContent(contentType, body))
}

// newArtifact builds an artifact whose content hash the caller already
// computed, so interning hashes each body once.
func newArtifact(contentType string, body []byte, sum [sha256.Size]byte) *Artifact {
	a := &Artifact{
		body:         body,
		sum:          sum,
		compressible: Compressible(contentType),
	}
	a.etag = `"` + hex.EncodeToString(a.sum[:16]) + `"`
	a.etagVal = []string{a.etag}
	a.ctypeVal = []string{contentType}
	a.clenVal = []string{strconv.Itoa(len(body))}
	return a
}

// hashContent addresses content by type AND bytes: the same bytes
// served as text/css and text/html are distinct artifacts (their
// headers differ), so the content type participates in the hash.
func hashContent(contentType string, body []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(contentType))
	h.Write([]byte{0})
	h.Write(body)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Bytes returns the identity representation.
func (a *Artifact) Bytes() []byte { return a.body }

// ETag returns the strong entity tag (quotes included).
func (a *Artifact) ETag() string { return a.etag }

// Size returns the identity size in bytes — the unit of cache-budget
// accounting. A materialized gzip variant is always smaller than the
// identity (otherwise it is discarded), so Size bounds the artifact's
// true footprint within a factor of two.
func (a *Artifact) Size() int64 { return int64(len(a.body)) }

// Compressible reports whether a gzip variant is worth building for
// the media type: text-shaped payloads compress, media containers and
// already-compressed formats do not.
func Compressible(contentType string) bool {
	ct := contentType
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	if strings.HasPrefix(ct, "text/") {
		return true
	}
	switch ct {
	case "application/json", "application/xml", "application/javascript",
		"application/xhtml+xml", "image/svg+xml":
		return true
	}
	return false
}

// gzPool recycles gzip writers across variant materializations: the
// per-writer window state (hundreds of KB at BestCompression) is
// allocated once per P, not once per artifact.
var gzPool = sync.Pool{
	New: func() any {
		w, err := gzip.NewWriterLevel(nil, GzipLevel)
		if err != nil {
			panic(err) // GzipLevel is a valid constant
		}
		return w
	},
}

// Gzip returns the precompressed variant, materializing it on first
// use, or nil when compression is not worthwhile for this artifact
// (wrong type, tiny, or the compressed form is not smaller). Safe for
// concurrent use; at most one goroutine pays the compression cost.
func (a *Artifact) Gzip() []byte {
	a.gzOnce.Do(func() {
		if !a.compressible || len(a.body) < MinGzipSize {
			return
		}
		var buf bytes.Buffer
		buf.Grow(len(a.body) / 2)
		zw := gzPool.Get().(*gzip.Writer)
		zw.Reset(&buf)
		zw.Write(a.body)
		if err := zw.Close(); err != nil {
			gzPool.Put(zw)
			return
		}
		gzPool.Put(zw)
		if buf.Len() >= len(a.body) {
			return // the variant must strictly win or it is dropped
		}
		a.gz = buf.Bytes()
		a.gzClenVal = []string{strconv.Itoa(len(a.gz))}
	})
	return a.gz
}

// Release does nothing.
//
// Deprecated: a Store entry goes when its artifact is garbage
// collected, so holders have no reference to give back.
func (a *Artifact) Release() {}

// ---- HTTP serving ----

// Serve writes the artifact as a full conditional-GET/HEAD response:
//
//   - ETag, Cache-Control and (for compressible types) Vary are always
//     set, on 304s too, as RFC 9110 prescribes.
//   - If-None-Match matching (strong or weak form, lists, "*") answers
//     with 304 and no body.
//   - When allowCompressed is true the gzip variant is selected by
//     Accept-Encoding q-value negotiation; identity is the fallback.
//   - HEAD carries the headers of the corresponding GET — ETag,
//     Content-Length, Content-Encoding — with a zero-byte body.
//
// The warm path performs no allocation: header values are pre-rendered
// slices and the body is a single Write of pre-frozen bytes.
func (a *Artifact) Serve(w http.ResponseWriter, r *http.Request, allowCompressed bool) {
	h := w.Header()
	h["Etag"] = a.etagVal
	h["Cache-Control"] = cacheControlVal
	if a.compressible && allowCompressed {
		h["Vary"] = varyVal
	}
	if inm := headerValue(r.Header, "If-None-Match"); inm != "" && ETagMatch(inm, a.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := a.body
	clen := a.clenVal
	if allowCompressed && AcceptsGzip(headerValue(r.Header, "Accept-Encoding")) {
		if gz := a.Gzip(); gz != nil {
			body = gz
			clen = a.gzClenVal
			h["Content-Encoding"] = gzipEncVal
		}
	}
	h["Content-Type"] = a.ctypeVal
	h["Content-Length"] = clen
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Write(body)
}

// headerValue is h.Get(key) for a key already in canonical form: it
// reads the map directly instead of canonicalizing key on every call.
func headerValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// ETagMatch reports whether the If-None-Match header value matches the
// entity tag. Weak comparison (the W/ prefix is ignored) is correct
// for conditional GET/HEAD revalidation per RFC 9110 §13.1.2. The scan
// allocates nothing.
func ETagMatch(header, etag string) bool {
	if header == "*" {
		return true
	}
	for i := 0; i < len(header); {
		for i < len(header) && (header[i] == ' ' || header[i] == '\t' || header[i] == ',') {
			i++
		}
		if i >= len(header) {
			break
		}
		if header[i] == 'W' && i+1 < len(header) && header[i+1] == '/' {
			i += 2
		}
		j := i
		for j < len(header) && header[j] != ',' {
			j++
		}
		cand := header[i:j]
		for len(cand) > 0 && (cand[len(cand)-1] == ' ' || cand[len(cand)-1] == '\t') {
			cand = cand[:len(cand)-1]
		}
		if cand == etag {
			return true
		}
		i = j
	}
	return false
}

// AcceptsGzip parses an Accept-Encoding header (q-values included) and
// reports whether a gzip response is acceptable: gzip (or x-gzip) is
// listed with q > 0, or a wildcard with q > 0 covers it. An absent
// header means "identity only" here — conservative, and what real
// CDNs do. The parse allocates nothing.
func AcceptsGzip(header string) bool {
	if header == "" {
		return false
	}
	qGzip, qAny := -1, -1
	for i := 0; i < len(header); {
		for i < len(header) && (header[i] == ' ' || header[i] == '\t' || header[i] == ',') {
			i++
		}
		if i >= len(header) {
			break
		}
		j := i
		for j < len(header) && header[j] != ',' {
			j++
		}
		coding, q := parseCoding(header[i:j])
		switch coding {
		case codingGzip:
			qGzip = q
		case codingAny:
			qAny = q
		}
		i = j
	}
	if qGzip >= 0 {
		return qGzip > 0
	}
	return qAny > 0
}

// Internal classification of one Accept-Encoding element.
const (
	codingOther = iota
	codingGzip
	codingAny
)

// parseCoding splits one element ("gzip;q=0.8") into the coding class
// and its q-value in milli-units (1000 when unspecified, 0 on a
// malformed q — a value the sender marked unusable stays unusable).
func parseCoding(elem string) (coding, q int) {
	name := elem
	params := ""
	if i := strings.IndexByte(elem, ';'); i >= 0 {
		name, params = elem[:i], elem[i+1:]
	}
	name = trimSpaces(name)
	switch {
	case equalFold(name, "gzip"), equalFold(name, "x-gzip"):
		coding = codingGzip
	case name == "*":
		coding = codingAny
	default:
		coding = codingOther
	}
	q = 1000
	for params != "" {
		var p string
		if i := strings.IndexByte(params, ';'); i >= 0 {
			p, params = params[:i], params[i+1:]
		} else {
			p, params = params, ""
		}
		p = trimSpaces(p)
		if len(p) >= 2 && (p[0] == 'q' || p[0] == 'Q') && p[1] == '=' {
			q = parseQ(p[2:])
		}
	}
	return coding, q
}

// parseQ parses an RFC 9110 qvalue ("0", "1", "0.75") into milli-units
// without allocating; malformed values parse as 0 (unacceptable).
func parseQ(s string) int {
	if s == "" {
		return 0
	}
	switch s[0] {
	case '1':
		return 1000 // "1", "1.0", "1.000" all mean 1000; junk after '1' rounds down harmlessly
	case '0':
		q := 0
		if len(s) > 1 {
			if s[1] != '.' {
				return 0
			}
			scale := 100
			for i := 2; i < len(s) && i < 5; i++ {
				if s[i] < '0' || s[i] > '9' {
					return 0
				}
				q += int(s[i]-'0') * scale
				scale /= 10
			}
		}
		return q
	}
	return 0
}

func trimSpaces(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// equalFold is strings.EqualFold restricted to ASCII, inlinable and
// allocation-free for the short coding names it compares.
func equalFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c, d := s[i], t[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if d >= 'A' && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// ---- interning store ----

// Store is a weak intern table keyed by content hash. Intern of
// byte-identical content returns the existing *Artifact while anything
// still holds it — same ETag, same backing bytes, the gzip variant it
// already built — so republishing an unchanged page costs neither memory
// nor a second compression, and clients' cached ETags keep revalidating
// to 304. The table holds no artifact alive: an entry goes once the
// garbage collector has reclaimed its artifact, so the store is bounded
// by what its holders (caches, snapshots, in-flight responses) keep.
type Store struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]weak.Pointer[Artifact]
}

// NewStore creates an empty interning store.
func NewStore() *Store {
	return &Store{m: make(map[[sha256.Size]byte]weak.Pointer[Artifact])}
}

// Shared is the process-global store: every model server in a catalog
// interns into it, so byte-identical pages are shared across models
// and across generations process-wide.
var Shared = NewStore()

// Intern returns the canonical artifact for (contentType, body): the
// interned one while it is still reachable, otherwise a new one that
// replaces the entry. Holders need not give it back.
func (s *Store) Intern(contentType string, body []byte) *Artifact {
	sum := hashContent(contentType, body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.m[sum].Value(); a != nil {
		return a
	}
	a := newArtifact(contentType, body, sum)
	wp := weak.Make(a)
	s.m[sum] = wp
	runtime.AddCleanup(a, s.forget, storeEntry{sum, wp})
	return a
}

// storeEntry names one map entry for the cleanup of its artifact.
type storeEntry struct {
	sum [sha256.Size]byte
	wp  weak.Pointer[Artifact]
}

// forget deletes the entry of a collected artifact — unless a later
// Intern of the same content already replaced it with a live one.
func (s *Store) forget(e storeEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[e.sum] == e.wp {
		delete(s.m, e.sum)
	}
}

// Len reports the number of entries: the distinct interned artifacts,
// counting collected ones whose cleanup has not run yet.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Bytes reports the summed identity size of every interned artifact
// still reachable — the deduplicated footprint of the published content.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, wp := range s.m {
		if a := wp.Value(); a != nil {
			n += int64(len(a.body))
		}
	}
	return n
}

package artifact

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

const htmlCT = "text/html; charset=utf-8"

func page(n int) []byte {
	var b bytes.Buffer
	b.WriteString("<html><body>")
	for i := 0; i < n; i++ {
		b.WriteString("<p>row ")
		b.WriteString(strconv.Itoa(i))
		b.WriteString(" of the generated presentation</p>")
	}
	b.WriteString("</body></html>")
	return b.Bytes()
}

func TestETagIsStableQuotedAndContentKeyed(t *testing.T) {
	a := New(htmlCT, page(50))
	b := New(htmlCT, page(50))
	c := New(htmlCT, page(51))
	if a.ETag() != b.ETag() {
		t.Errorf("same content, different ETags: %s vs %s", a.ETag(), b.ETag())
	}
	if a.ETag() == c.ETag() {
		t.Error("different content, same ETag")
	}
	if !strings.HasPrefix(a.ETag(), `"`) || !strings.HasSuffix(a.ETag(), `"`) {
		t.Errorf("ETag not quoted: %s", a.ETag())
	}
	// Content type participates in the address: same bytes, different
	// headers, different artifact.
	d := New("text/css; charset=utf-8", page(50))
	if a.ETag() == d.ETag() {
		t.Error("different content type, same ETag")
	}
}

// settleLen collects garbage until st holds at most want entries or a
// deadline passes, and returns the last length seen. Cleanups run on
// their own goroutine after a collection, so one GC is not enough.
func settleLen(st *Store, want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := st.Len(); n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInterningSharesAndReleases: byte-identical content interns to one
// artifact; its entry stays while a holder keeps the artifact (the
// negative control) and leaves the store once nothing does.
func TestInterningSharesAndReleases(t *testing.T) {
	st := NewStore()
	a := st.Intern(htmlCT, page(40))
	b := st.Intern(htmlCT, append([]byte(nil), page(40)...)) // distinct backing array
	if a != b {
		t.Fatal("byte-identical content not interned to the same artifact")
	}
	if st.Len() != 1 {
		t.Fatalf("store len %d, want 1", st.Len())
	}
	if c := st.Intern(htmlCT, page(41)); c == a || st.Len() != 2 {
		t.Fatalf("distinct content must make a new entry (len %d)", st.Len())
	}
	if got := settleLen(st, 1); got != 1 {
		t.Fatalf("store len %d after the GC, want 1: the held artifact stays, the dropped one goes", got)
	}
	if st.Intern(htmlCT, page(40)) != a {
		t.Fatal("a held artifact was re-interned as a new one")
	}
	runtime.KeepAlive(a)
	if got := settleLen(st, 0); got != 0 {
		t.Fatalf("store len %d once nothing holds its artifacts, want 0", got)
	}
	// Release is a deprecated no-op.
	New(htmlCT, page(3)).Release()
}

// TestReinternWhileHeldSharesGzipVariant: while a holder keeps an
// artifact, interning its bytes again — across a collection — returns
// the same artifact and the same gzip slice, so nothing is compressed
// twice.
func TestReinternWhileHeldSharesGzipVariant(t *testing.T) {
	st := NewStore()
	a := st.Intern(htmlCT, page(80))
	gz := a.Gzip()
	if gz == nil {
		t.Fatal("no gzip variant for a compressible page")
	}
	runtime.GC()
	b := st.Intern(htmlCT, append([]byte(nil), page(80)...))
	if b != a {
		t.Fatal("re-interning held content built a new artifact")
	}
	if g := b.Gzip(); len(g) != len(gz) || &g[0] != &gz[0] {
		t.Error("re-interned artifact compressed its body again")
	}
	runtime.KeepAlive(a)
}

// TestLateCleanupKeepsNewerEntry: a cleanup that runs after the same
// content was interned again must not delete the newer entry.
func TestLateCleanupKeepsNewerEntry(t *testing.T) {
	st := NewStore()
	body := page(30)
	sum := hashContent(htmlCT, body)
	st.Intern(htmlCT, body) // dropped at once
	st.mu.Lock()
	first := storeEntry{sum, st.m[sum]}
	st.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); first.wp.Value() != nil; {
		if time.Now().After(deadline) {
			t.Fatal("an unreferenced artifact was never collected")
		}
		runtime.GC()
	}
	a := st.Intern(htmlCT, body)
	runtime.GC()
	st.forget(first) // the first artifact's cleanup, however late it runs
	if got := settleLen(st, 1); got != 1 {
		t.Fatalf("store len %d, want the newer entry only", got)
	}
	if st.Intern(htmlCT, body) != a {
		t.Error("a late cleanup deleted the newer entry")
	}
	runtime.KeepAlive(a)
}

func TestGzipVariantRoundTripsAndIsWorthwhile(t *testing.T) {
	a := New(htmlCT, page(100))
	gz := a.Gzip()
	if gz == nil {
		t.Fatal("no gzip variant for a large compressible page")
	}
	if len(gz) >= len(a.Bytes()) {
		t.Fatalf("variant (%d B) not smaller than identity (%d B)", len(gz), len(a.Bytes()))
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, a.Bytes()) {
		t.Error("decompressed variant differs from the identity bytes")
	}
	// Tiny payloads and incompressible types skip the variant.
	if New(htmlCT, []byte("<p>hi</p>")).Gzip() != nil {
		t.Error("tiny payload grew a gzip variant")
	}
	if New("image/png", page(100)).Gzip() != nil {
		t.Error("non-compressible type grew a gzip variant")
	}
}

func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"gzip, deflate, br", true},
		{"GZIP", true},
		{"x-gzip", true},
		{"deflate", false},
		{"gzip;q=0", false},
		{"gzip;q=0.001", true},
		{"gzip; q=0.5, identity; q=1", true},
		{"identity", false},
		{"*", true},
		{"*;q=0", false},
		{"deflate, *;q=0.1", true},
		{"gzip;q=0, *;q=1", false}, // explicit beats wildcard
		{"br;q=1.0, gzip;q=0.8, *;q=0.1", true},
		{"gzip;q=junk", false},
		{"  gzip  ;  q=0.9  ", true},
	}
	for _, c := range cases {
		if got := AcceptsGzip(c.header); got != c.want {
			t.Errorf("AcceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

func TestETagMatch(t *testing.T) {
	const tag = `"abc123"`
	cases := []struct {
		header string
		want   bool
	}{
		{`"abc123"`, true},
		{`"zzz", "abc123"`, true},
		{`W/"abc123"`, true}, // weak comparison is valid for GET revalidation
		{`"abc1234"`, false},
		{`*`, true},
		{`"zzz"`, false},
		{` "abc123" `, true},
	}
	for _, c := range cases {
		if got := ETagMatch(c.header, tag); got != c.want {
			t.Errorf("ETagMatch(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

func TestServeFullResponse(t *testing.T) {
	a := New(htmlCT, page(100))
	req := httptest.NewRequest(http.MethodGet, "/site/index.html", nil)
	rec := httptest.NewRecorder()
	a.Serve(rec, req, true)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("ETag"); got != a.ETag() {
		t.Errorf("ETag %q", got)
	}
	if got := rec.Header().Get("Cache-Control"); got != CacheControl {
		t.Errorf("Cache-Control %q", got)
	}
	if got := rec.Header().Get("Vary"); got != "Accept-Encoding" {
		t.Errorf("Vary %q", got)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(a.Bytes())) {
		t.Errorf("Content-Length %q", got)
	}
	if !bytes.Equal(rec.Body.Bytes(), a.Bytes()) {
		t.Error("body differs from identity bytes")
	}
}

func TestServeConditionalAndVariants(t *testing.T) {
	a := New(htmlCT, page(100))

	t.Run("if-none-match yields 304 with ETag and no body", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set("If-None-Match", a.ETag())
		rec := httptest.NewRecorder()
		a.Serve(rec, req, true)
		if rec.Code != http.StatusNotModified {
			t.Fatalf("status %d", rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("304 carried %d body bytes", rec.Body.Len())
		}
		if rec.Header().Get("ETag") != a.ETag() {
			t.Error("304 must carry the ETag")
		}
	})

	t.Run("gzip negotiation", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set("Accept-Encoding", "gzip, br")
		rec := httptest.NewRecorder()
		a.Serve(rec, req, true)
		if rec.Header().Get("Content-Encoding") != "gzip" {
			t.Fatalf("Content-Encoding %q", rec.Header().Get("Content-Encoding"))
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(a.Gzip())) {
			t.Errorf("Content-Length %q, want %d", got, len(a.Gzip()))
		}
		if !bytes.Equal(rec.Body.Bytes(), a.Gzip()) {
			t.Error("body is not the gzip variant")
		}
	})

	t.Run("compression disabled serves identity", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		a.Serve(rec, req, false)
		if rec.Header().Get("Content-Encoding") != "" {
			t.Error("variant served with compression disabled")
		}
		if !bytes.Equal(rec.Body.Bytes(), a.Bytes()) {
			t.Error("body is not the identity bytes")
		}
	})

	t.Run("HEAD has identical headers and zero body", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodHead, "/", nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		a.Serve(rec, req, true)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("HEAD carried %d body bytes", rec.Body.Len())
		}
		if rec.Header().Get("ETag") != a.ETag() ||
			rec.Header().Get("Content-Encoding") != "gzip" ||
			rec.Header().Get("Content-Length") != strconv.Itoa(len(a.Gzip())) {
			t.Errorf("HEAD headers differ from GET: %v", rec.Header())
		}
	})
}

// discardWriter is the cheapest possible ResponseWriter: a reusable
// header map and a byte counter, so AllocsPerRun isolates Serve itself.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func newDiscardWriter() *discardWriter { return &discardWriter{h: make(http.Header)} }

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(c int)   { d.code = c }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

func TestServeWarmPathsAllocateNothing(t *testing.T) {
	a := New(htmlCT, page(100))
	a.Gzip() // materialize the variant outside the measured region

	w := newDiscardWriter()

	cond := httptest.NewRequest(http.MethodGet, "/", nil)
	cond.Header.Set("If-None-Match", a.ETag())
	if n := testing.AllocsPerRun(200, func() {
		w.code = 0
		a.Serve(w, cond, true)
	}); n != 0 {
		t.Errorf("conditional 304: %v allocs/op, want 0", n)
	}
	if w.code != http.StatusNotModified {
		t.Fatalf("status %d", w.code)
	}

	gz := httptest.NewRequest(http.MethodGet, "/", nil)
	gz.Header.Set("Accept-Encoding", "gzip;q=0.9, identity;q=0.5")
	if n := testing.AllocsPerRun(200, func() {
		w.code = 0
		w.n = 0
		a.Serve(w, gz, true)
	}); n != 0 {
		t.Errorf("warm gzip hit: %v allocs/op, want 0", n)
	}
	if w.n != len(a.Gzip()) {
		t.Fatalf("wrote %d bytes, want the gzip variant (%d)", w.n, len(a.Gzip()))
	}

	plain := httptest.NewRequest(http.MethodGet, "/", nil)
	if n := testing.AllocsPerRun(200, func() {
		w.n = 0
		a.Serve(w, plain, true)
	}); n != 0 {
		t.Errorf("warm identity hit: %v allocs/op, want 0", n)
	}
}

func TestStoreBytesDeduplicates(t *testing.T) {
	st := NewStore()
	body := page(60)
	a := st.Intern(htmlCT, body)
	st.Intern(htmlCT, append([]byte(nil), body...))
	if got := st.Bytes(); got != int64(len(body)) {
		t.Errorf("store bytes %d, want deduplicated %d", got, len(body))
	}
	runtime.KeepAlive(a) // Bytes counts reachable artifacts only
}

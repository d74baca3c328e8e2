package server

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"

	"goldweb/internal/artifact"
	"goldweb/internal/htmlgen"
)

// siteKey identifies one cached presentation (Stage's probe), or one
// page of a presentation published on its own. The generation number
// ties the entry to the model snapshot it was published from, so a
// publication that finishes after a commit swapped the model can never
// be served for the new one.
type siteKey struct {
	gen   uint64
	mode  htmlgen.Mode
	focus string
	page  string // "" keys the whole presentation
}

// siteCache is a bounded LRU of published presentations. It accounts
// cost in bytes (the summed identity size of every page artifact), not
// entries: a site's footprint is what matters under a byte budget, and
// the per-focus sites of a large model are not the same size as the
// plain multi-page one. An entry cap is kept as a secondary bound
// (distinct ?focus= values were historically the DoS vector).
//
// An evicted site's pages stay interned while anything else holds them
// (a snapshot, another entry, an in-flight response), so a republish of
// the same bytes gets back the same artifact and its gzip variant; once
// nothing does, the garbage collector drops them from the content store.
type siteCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used; values are *cacheEntry
	m          map[siteKey]*list.Element
	// minGen is the generation the latest purge installed. Entries of
	// older generations can never be served again, so add drops them.
	minGen uint64
}

type cacheEntry struct {
	key  siteKey
	site *publishedSite
}

// newSiteCache returns a cache of at most maxEntries entries (at least
// one) and maxBytes identity bytes (<= 0: no byte budget).
func newSiteCache(maxEntries int, maxBytes int64) *siteCache {
	return &siteCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		m:          map[siteKey]*list.Element{},
	}
}

// page returns the artifact cached for key.page: the entry of the whole
// presentation (key without its page) answers first, then the page's
// own entry, both probed under one acquisition of the lock. ok is false
// on a miss; a whole presentation without the page answers (nil, true).
func (c *siteCache) page(key siteKey) (a *artifact.Artifact, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	page := key.page
	key.page = ""
	el, ok := c.m[key]
	if !ok {
		key.page = page
		if el, ok = c.m[key]; !ok {
			return nil, false
		}
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).site.page(page), true
}

// add caches site under key. A publication that finishes after a purge
// moved past its generation is dropped instead: nothing could ever serve
// it.
func (c *siteCache) add(key siteKey, site *publishedSite) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if key.gen < c.minGen {
		return
	}
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.bytes += site.size - ent.site.size
		ent.site = site
		c.evictLocked()
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, site: site})
	c.bytes += site.size
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until both bounds hold.
// The most recent entry always survives, even when it alone exceeds the
// byte budget — evicting the page a client is about to fetch would turn
// an over-budget site into a republish-per-request thrash.
func (c *siteCache) evictLocked() {
	for c.ll.Len() > 1 &&
		(c.ll.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		ent := oldest.Value.(*cacheEntry)
		delete(c.m, ent.key)
		c.bytes -= ent.site.size
	}
}

// purge drops every entry (model swap to generation gen) and refuses
// later entries of older generations.
func (c *siteCache) purge(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.minGen = gen
	c.ll.Init()
	c.m = map[siteKey]*list.Element{}
	c.bytes = 0
}

// len reports the current entry count (for tests).
func (c *siteCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// usedBytes reports the accounted identity bytes (for tests).
func (c *siteCache) usedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// errPublishTimeout is what a request gets when the publication it
// waits for outlives the request timeout. The publication keeps running
// and caches its result, so a retry is usually a warm hit.
var errPublishTimeout = errors.New("publication wait timed out")

// flightGroup is a minimal singleflight: concurrent callers for the same
// key share one in-flight publication instead of queueing behind a lock
// and re-running the transformation each. Publications run detached on
// their own goroutines, so a caller can stop waiting without abandoning
// the work; wg counts them for shutdown.
type flightGroup struct {
	mu sync.Mutex
	m  map[siteKey]*flightCall
	wg *sync.WaitGroup
}

type flightCall struct {
	done chan struct{} // closed once site and err are final
	site *publishedSite
	err  error
}

func newFlightGroup(wg *sync.WaitGroup) *flightGroup {
	return &flightGroup{m: map[siteKey]*flightCall{}, wg: wg}
}

// Do starts fn on its own goroutine unless a call for key is already in
// flight, then waits for the call's result for at most d (0 waits
// without bound). A caller that stops waiting gets errPublishTimeout;
// the call runs on. A panic in fn is recovered on the call's goroutine —
// no request's recovery middleware can reach it there — and becomes the
// error of every waiter.
func (g *flightGroup) Do(key siteKey, d time.Duration, fn func() (*publishedSite, error)) (*publishedSite, error) {
	g.mu.Lock()
	c, ok := g.m[key]
	if !ok {
		c = &flightCall{done: make(chan struct{})}
		g.m[key] = c
		g.wg.Add(1) // before the goroutine exists, so a concurrent Wait sees it
		go g.run(key, c, fn)
	}
	g.mu.Unlock()
	if d <= 0 {
		<-c.done
		return c.site, c.err
	}
	t := getWaitTimer(d)
	select {
	case <-c.done:
		putWaitTimer(t, false)
		return c.site, c.err
	case <-t.C:
		putWaitTimer(t, true)
		return nil, errPublishTimeout
	}
}

// waitTimers recycles the timers that bound waits in Do, so a waiting
// request allocates none.
var waitTimers sync.Pool

// getWaitTimer returns a timer that fires once after d, its channel
// empty.
func getWaitTimer(d time.Duration) *time.Timer {
	if t, ok := waitTimers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putWaitTimer stops t and pools it with its channel empty; fired
// reports whether the waiter received its one value. That is correct
// under both timer channel semantics: with the synchronous channels of
// Go 1.23 and later, Stop discards an undelivered value and reports
// true; with the asynchronous ones (asynctimerchan=1, which a go 1.22
// module line selects), Stop reports false for a timer that fired, and
// its value is in the channel or on its way, so the receive takes it.
func putWaitTimer(t *time.Timer, fired bool) {
	if !t.Stop() && !fired {
		<-t.C
	}
	waitTimers.Put(t)
}

// run executes one call and publishes its result to the waiters.
func (g *flightGroup) run(key siteKey, c *flightCall, fn func() (*publishedSite, error)) {
	defer g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("publication panicked: %v", r)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.site, c.err = fn()
}

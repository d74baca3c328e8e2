package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"goldweb/internal/artifact"
	"goldweb/internal/htmlgen"
)

// fakeSite builds a publishedSite of exactly n pages × pageBytes each,
// with content unique to (tag) so interning does not collapse sites.
func fakeSite(t *testing.T, store *artifact.Store, tag string, n, pageBytes int) *publishedSite {
	t.Helper()
	site := &htmlgen.Site{Pages: map[string][]byte{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d.html", i)
		content := bytes.Repeat([]byte("x"), pageBytes)
		copy(content, tag+name)
		site.Pages[name] = content
		site.Order = append(site.Order, name)
	}
	return newPublishedSite(store, site)
}

// settleLen collects garbage until store holds at most want artifacts
// or a deadline passes, and returns the last count seen: an artifact
// leaves the store once nothing holds it, when its cleanup has run.
func settleLen(store *artifact.Store, want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := store.Len(); n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheByteBudgetAccounting(t *testing.T) {
	store := artifact.NewStore()
	// Budget of 3 KiB with 1 KiB sites: at most 3 live entries.
	c := newSiteCache(100, 3072)
	for i := 0; i < 6; i++ {
		s := fakeSite(t, store, fmt.Sprintf("s%d", i), 1, 1024)
		c.add(siteKey{gen: uint64(i)}, s)
	}
	if got := c.len(); got != 3 {
		t.Errorf("entries %d, want 3 under a 3 KiB budget of 1 KiB sites", got)
	}
	if got := c.usedBytes(); got != 3072 {
		t.Errorf("accounted bytes %d, want 3072", got)
	}
	// The cache holds nothing it evicted: only the live entries' pages
	// remain in the store once the evicted ones are collected.
	if got := settleLen(store, 3); got != 3 {
		t.Errorf("store holds %d artifacts, want the 3 live entries' pages", got)
	}

	// The newest entry survives even when it alone blows the budget.
	big := fakeSite(t, store, "big", 1, 8192)
	c.add(siteKey{gen: 100}, big)
	if got := c.len(); got != 1 {
		t.Errorf("entries %d, want only the oversized newest entry", got)
	}
	if got := c.usedBytes(); got != 8192 {
		t.Errorf("accounted bytes %d, want 8192", got)
	}

	// A site a caller still holds stays interned after its eviction (the
	// negative control); purge drops everything else.
	held := big.page("p0.html")
	c.purge(101)
	if got, used := c.len(), c.usedBytes(); got != 0 || used != 0 {
		t.Errorf("after purge: %d entries, %d bytes", got, used)
	}
	if got := settleLen(store, 1); got != 1 {
		t.Errorf("store holds %d artifacts after purge, want only the held page", got)
	}
	runtime.KeepAlive(held)
	if got := settleLen(store, 0); got != 0 {
		t.Errorf("store holds %d artifacts once nothing holds them, want 0", got)
	}
	runtime.KeepAlive(c) // a live cache must not be what holds them
}

func TestCacheReplaceSameKeyAccountsDelta(t *testing.T) {
	store := artifact.NewStore()
	c := newSiteCache(10, 0) // entries-only bound; byte budget disabled
	key := siteKey{gen: 1}
	c.add(key, fakeSite(t, store, "a", 2, 512))
	if got := c.usedBytes(); got != 1024 {
		t.Fatalf("bytes %d, want 1024", got)
	}
	c.add(key, fakeSite(t, store, "b", 1, 256))
	if got := c.usedBytes(); got != 256 {
		t.Errorf("bytes %d after replacement, want 256", got)
	}
	if got := c.len(); got != 1 {
		t.Errorf("entries %d, want 1", got)
	}
	if got := settleLen(store, 1); got != 1 {
		t.Errorf("store %d artifacts, want 1 (the replaced site is not held)", got)
	}
	runtime.KeepAlive(c)
}

// TestCacheConcurrentChurn hammers page/add/purge from many goroutines
// (run with -race): the invariant checked at the end is that the byte
// accounting equals the sum of the surviving entries' sizes and the
// cache holds no evicted or purged site.
func TestCacheConcurrentChurn(t *testing.T) {
	store := artifact.NewStore()
	c := newSiteCache(8, 16*1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := siteKey{gen: uint64(i % 16), focus: fmt.Sprintf("g%d", g%4)}
				if i%7 == 0 {
					c.purge(0)
					continue
				}
				if _, ok := c.page(key); !ok {
					c.add(key, fakeSite(t, store, fmt.Sprintf("%d-%d", g%4, i%16), 2, 512))
				}
			}
		}(g)
	}
	wg.Wait()

	// Re-derive the accounting from the surviving entries.
	c.mu.Lock()
	var want int64
	entries := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		want += el.Value.(*cacheEntry).site.size
		entries++
	}
	got := c.bytes
	c.mu.Unlock()
	if got != want {
		t.Errorf("accounted %d bytes, surviving entries sum to %d", got, want)
	}
	if entries > 8 {
		t.Errorf("%d entries survived an 8-entry cap", entries)
	}
	if got > 16*1024 && entries > 1 {
		t.Errorf("byte budget exceeded with %d entries (%d bytes)", entries, got)
	}

	// After a final purge nothing holds a site, so the store empties.
	c.purge(0)
	if n := settleLen(store, 0); n != 0 {
		t.Errorf("store retains %d artifacts after purge (the cache still holds sites)", n)
	}
	runtime.KeepAlive(c)
}

package server

import (
	"container/list"
	"sync"
)

// cacheKey identifies one memoized analytics result. The four fields are
// the serving layer's cache contract:
//
//   - sessionID: results never cross graph sessions. This is the
//     session *instance* nonce, not the name: deleting a session and
//     re-creating one under the same name (possibly with a different
//     query) yields a new ID, so a result computed against the old
//     instance — even one whose handler is still in flight during the
//     delete/re-create — can never be served for the new one (version
//     counters restart per instance, so name+version would collide);
//   - version: the snapshot version the result was computed at. Static
//     sessions are frozen at version 0; live sessions take the version
//     from LiveGraph, which advances on every batched delta application
//     and rebuild, so a mutation that flushes invalidates every cached
//     result of the session by construction (old-version entries are
//     unreachable garbage that the LRU evicts);
//   - analysis: the algorithm name (pagerank, components, ...);
//   - params: the canonicalized parameter string (sorted key=value
//     pairs), so equivalent requests spelled differently share an entry.
type cacheKey struct {
	sessionID uint64
	version   uint64
	analysis  string
	params    string
}

// cacheEntry is a cached, fully marshaled JSON response body. Caching the
// bytes (not the result object) makes a hit a map lookup plus a write, and
// makes the size accounting exact.
type cacheEntry struct {
	key  cacheKey
	body []byte
}

// CacheStats is a point-in-time snapshot of cache counters, exposed by
// GET /v1/metrics.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// resultCache is a size-bounded LRU over marshaled analytics results,
// safe for concurrent use. Both bounds apply: inserting past maxEntries
// or maxBytes evicts least-recently-used entries first. A single result
// larger than maxBytes is simply not cached.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	// graphlint:guardedby mu
	bytes int64
	// graphlint:guardedby mu
	ll *list.List
	// graphlint:guardedby mu
	items map[cacheKey]*list.Element

	// graphlint:guardedby mu
	hits, misses, evictions int64
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[cacheKey]*list.Element),
	}
}

// get returns the cached body for k, marking it most recently used.
func (c *resultCache) get(k cacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put inserts (or refreshes) k -> body and evicts LRU entries until both
// bounds hold again.
func (c *resultCache) put(k cacheKey, body []byte) {
	size := int64(len(body))
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.bytes += size - int64(len(el.Value.(*cacheEntry).body))
		el.Value.(*cacheEntry).body = body
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&cacheEntry{key: k, body: body})
		c.bytes += size
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		c.evictOldest()
	}
}

// dropSession removes every entry of one session instance when it is
// deleted — correctness comes from the ID nonce in the key; this just
// frees the dead entries' memory ahead of LRU eviction.
func (c *resultCache) dropSession(sessionID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.key.sessionID == sessionID {
			c.bytes -= int64(len(e.body))
			delete(c.items, e.key)
			c.ll.Remove(el)
		}
		el = next
	}
}

// evictOldest removes the least-recently-used entry. Callers hold mu.
func (c *resultCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.bytes -= int64(len(e.body))
	delete(c.items, e.key)
	c.ll.Remove(el)
	c.evictions++
}

// stats snapshots the counters.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
	}
}

// Package servekit holds what the two HTTP serving tiers share: the LRU
// result cache and the latency, Prometheus and JSON helpers behind their
// /stats and /metrics surfaces. internal/qserv (one node) and
// internal/router (the scatter-gather tier above the nodes) both build on
// it, so a fix to either surface lands once.
package servekit

import (
	"container/list"
	"sync"
)

// Cache is an LRU cache of rendered query responses, keyed by the
// normalized query string. A node's stored relations are immutable for
// the lifetime of a key, and where answers can change (ingest epochs, a
// router's node-table epoch) the epoch is part of the key, so entries of
// an older view simply become unreachable and the LRU ages them out — no
// invalidation scan. The cache's only job is bounding memory.
//
// A hit returns the exact bytes the first execution produced, so repeated
// queries get byte-identical responses. Put keeps that first payload even
// when concurrent misses on one key each execute and store: every later
// Put returns the stored bytes, and callers reply with those.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	hits    int64
	misses  int64
	evicted int64
}

type cacheEntry struct {
	key     string
	payload []byte
}

// NewCache returns a cache bounded to capacity entries. Capacity must be
// positive; callers disable caching by not constructing one.
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached payload for key, counting a hit or miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, true
}

// Put stores payload under key unless the key is already present, and
// returns the payload the cache now holds for key: payload itself, or the
// bytes an earlier Put stored. A new entry evicts the least recently used
// one when over capacity. Stored payloads must not be mutated afterwards.
func (c *Cache) Put(key string, payload []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).payload
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, payload: payload})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		c.evicted++
	}
	return payload
}

// CacheStats is the /stats snapshot of a cache.
type CacheStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Evicted  int64   `json:"evicted"`
	Entries  int     `json:"entries"`
	Capacity int     `json:"capacity"`
	HitRate  float64 `json:"hit_rate"`
}

// Snapshot returns the cache's counters.
func (c *Cache) Snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits: c.hits, Misses: c.misses, Evicted: c.evicted,
		Entries: c.ll.Len(), Capacity: c.cap,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

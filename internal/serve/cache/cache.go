// Package cache is the serving layer's content-addressed result store:
// the SHA-256 of a config's canonical encoding names its Result, so any
// two requests for the same simulation — however differently spelled —
// resolve to one entry. The store is LRU-bounded and counts hits and
// misses for the /metricsz endpoint.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"hetpnoc"
)

// Key is the content address of one simulation: the SHA-256 digest of
// the config's canonical JSON encoding.
type Key [sha256.Size]byte

// KeyOf digests a canonical config encoding.
func KeyOf(canonical []byte) Key { return sha256.Sum256(canonical) }

// String returns the key's hex form (used in responses and logs).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Cache is a thread-safe LRU map from Key to hetpnoc.Result.
type Cache struct {
	mu       sync.Mutex
	capacity int // immutable after New

	// guarded by mu
	ll *list.List // front = most recently used
	// guarded by mu
	entries map[Key]*list.Element

	hits   int64 // guarded by mu
	misses int64 // guarded by mu
}

type entry struct {
	key Key
	res hetpnoc.Result
}

// New returns a cache holding at most capacity results; capacity below 1
// is raised to 1 so the cache is always usable.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element, capacity),
	}
}

// Get returns the cached result for k, marking it most recently used.
func (c *Cache) Get(k Key) (hetpnoc.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return hetpnoc.Result{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).res, true
}

// Put stores res under k, evicting the least recently used entry when
// the cache is full. Storing an existing key refreshes its value and
// recency.
func (c *Cache) Put(k Key, res hetpnoc.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*entry).res = res
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.entries, oldest.Value.(*entry).key)
		}
	}
	c.entries[k] = c.ll.PushFront(&entry{key: k, res: res})
}

// Stats is a point-in-time read-out of the cache counters.
type Stats struct {
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

// HitRate returns hits / (hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: c.ll.Len(), Capacity: c.capacity, Hits: c.hits, Misses: c.misses}
}

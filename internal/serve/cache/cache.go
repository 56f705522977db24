// Package cache is the serving layer's content-addressed result store:
// the SHA-256 of a config's canonical encoding names its Result, so any
// two requests for the same simulation — however differently spelled —
// resolve to one entry. Each entry is rendered once, when it is stored,
// into the bytes a cache hit replies with. A body index in front of the
// content keys maps the digest of a raw request body that has already
// been served to its content key, so a repeated body skips decoding
// altogether. Both are LRU-bounded by the same capacity; the cache counts
// hits and misses for the /metricsz endpoint.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"hetpnoc"
)

// Key is the content address of one simulation: the SHA-256 digest of
// the config's canonical JSON encoding. The body index uses the same
// type for the digest of a raw request body.
type Key [sha256.Size]byte

// KeyOf digests a canonical config encoding (or a raw request body).
func KeyOf(canonical []byte) Key { return sha256.Sum256(canonical) }

// String returns the key's hex form (used in responses and logs).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Entry is one completed run as the cache holds it. An Entry is
// immutable once stored and is shared by every reader: its byte slices
// must not be modified.
type Entry struct {
	Key    Key
	Result hetpnoc.Result
	// JSON is the result's canonical encoding (hetpnoc.Result.CanonicalJSON),
	// a window onto Reply.
	JSON []byte
	// Reply is the complete /v1/run reply to a cache hit on this entry:
	// AppendReply with cached set, then a newline.
	Reply []byte
}

// AppendReply appends the /v1/run reply object for the run under k, whose
// canonical result encoding is result, to dst. The bytes are exactly what
// encoding/json writes for serve.RunResponse{Key: k.String(), Cached:
// cached, Coalesced: coalesced, Result: <the result>}, without the
// Encoder's trailing newline; the serve package's wire tests pin the two
// together.
func AppendReply(dst []byte, k Key, cached, coalesced bool, result []byte) []byte {
	dst = append(dst, `{"key":"`...)
	dst = hex.AppendEncode(dst, k[:])
	dst = append(dst, `","cached":`...)
	dst = strconv.AppendBool(dst, cached)
	dst = append(dst, `,"coalesced":`...)
	dst = strconv.AppendBool(dst, coalesced)
	dst = append(dst, `,"result":`...)
	dst = append(dst, result...)
	return append(dst, '}')
}

// replyOverhead is the length of AppendReply's output minus the result.
var replyOverhead = len(AppendReply(nil, Key{}, true, false, nil))

// render encodes res once into the entry the cache stores for k.
func render(k Key, res hetpnoc.Result) (*Entry, error) {
	js, err := res.CanonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("cache: encode result %s: %w", k, err)
	}
	reply := AppendReply(make([]byte, 0, replyOverhead+len(js)+1), k, true, false, js)
	reply = append(reply, '\n')
	start := replyOverhead - 1 // the result follows the envelope's fields; '}' and '\n' close it
	end := start + len(js)
	return &Entry{Key: k, Result: res, JSON: reply[start:end:end], Reply: reply}, nil
}

// Cache is a thread-safe LRU map from Key to Entry, with an LRU body
// index in front of it.
type Cache struct {
	mu       sync.Mutex
	capacity int // immutable after New

	// guarded by mu
	ll *list.List // of *Entry; front = most recently used
	// guarded by mu
	entries map[Key]*list.Element

	// guarded by mu
	bodies *list.List // of bodyRecord; front = most recently used
	// guarded by mu
	byBody map[Key]*list.Element

	hits   int64 // guarded by mu
	misses int64 // guarded by mu
}

// bodyRecord maps the digest of a request body that decoded, validated
// and produced a result to that result's content key.
type bodyRecord struct {
	body, key Key
}

// New returns a cache holding at most capacity results and at most
// capacity body-index records; capacity below 1 is raised to 1 so the
// cache is always usable.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element, capacity),
		bodies:   list.New(),
		byBody:   make(map[Key]*list.Element, capacity),
	}
}

// Get returns the cached result for k, marking it most recently used.
func (c *Cache) Get(k Key) (hetpnoc.Result, bool) {
	e, ok := c.Lookup(k)
	if !ok {
		return hetpnoc.Result{}, false
	}
	return e.Result, true
}

// Lookup returns the cached entry for k, marking it most recently used,
// and counts a hit or a miss.
func (c *Cache) Lookup(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*Entry), true
}

// LookupBody returns the entry a request body with digest body was last
// served from, marking both the record and the entry most recently
// used. A found entry counts as a hit, exactly as Lookup's would. A body
// never indexed, or whose entry has since been evicted, counts nothing:
// the caller falls back to the content key, whose Lookup counts.
func (c *Cache) LookupBody(body Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bel, ok := c.byBody[body]
	if !ok {
		return nil, false
	}
	el, ok := c.entries[bel.Value.(bodyRecord).key]
	if !ok {
		c.bodies.Remove(bel)
		delete(c.byBody, body)
		return nil, false
	}
	c.hits++
	c.bodies.MoveToFront(bel)
	c.ll.MoveToFront(el)
	return el.Value.(*Entry), true
}

// IndexBody records that the request body with digest body is served by
// the entry under key, evicting the least recently used record when the
// index is full. Nothing is recorded when key has no entry.
func (c *Cache) IndexBody(body, key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		return
	}
	if bel, ok := c.byBody[body]; ok {
		bel.Value = bodyRecord{body: body, key: key}
		c.bodies.MoveToFront(bel)
		return
	}
	if c.bodies.Len() >= c.capacity {
		oldest := c.bodies.Back()
		c.bodies.Remove(oldest)
		delete(c.byBody, oldest.Value.(bodyRecord).body)
	}
	c.byBody[body] = c.bodies.PushFront(bodyRecord{body: body, key: key})
}

// Put stores res under k, evicting the least recently used entry when
// the cache is full. Storing an existing key replaces its entry and
// refreshes its recency. A result that cannot be encoded (a NaN or an
// infinite float) is not stored.
func (c *Cache) Put(k Key, res hetpnoc.Result) {
	_, _ = c.Add(k, res)
}

// Add is Put returning the stored entry, or the error that kept res out
// of the cache. The result is rendered before the lock is taken.
func (c *Cache) Add(k Key, res hetpnoc.Result) (*Entry, error) {
	e, err := render(k, res)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return e, nil
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*Entry).Key)
	}
	c.entries[k] = c.ll.PushFront(e)
	return e, nil
}

// Stats is a point-in-time read-out of the cache counters.
type Stats struct {
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	// IndexedBodies is the number of body-index records, at most
	// Capacity.
	IndexedBodies int `json:"indexedBodies"`
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
	return Stats{Entries: c.ll.Len(), Capacity: c.capacity, Hits: c.hits, Misses: c.misses, IndexedBodies: c.bodies.Len()}
}

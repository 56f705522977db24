package cache

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"hetpnoc"
)

func keyFor(i int) Key { return KeyOf([]byte(fmt.Sprintf("config-%d", i))) }

func resFor(i int) hetpnoc.Result { return hetpnoc.Result{PacketsDelivered: int64(i)} }

func TestKeyOfStableAndDistinct(t *testing.T) {
	a := KeyOf([]byte("alpha"))
	if b := KeyOf([]byte("alpha")); a != b {
		t.Fatal("equal inputs produced different keys")
	}
	if c := KeyOf([]byte("beta")); a == c {
		t.Fatal("distinct inputs collided")
	}
	if got := len(a.String()); got != 64 {
		t.Fatalf("hex key length = %d, want 64", got)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(keyFor(0)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(keyFor(0), resFor(0))
	res, ok := c.Get(keyFor(0))
	if !ok || res.PacketsDelivered != 0 {
		t.Fatalf("Get after Put = (%+v, %v)", res, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Capacity != 4 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry, capacity 4", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	c.Put(keyFor(1), resFor(1))
	c.Put(keyFor(2), resFor(2))
	// Touch 1 so 2 becomes the eviction candidate.
	if _, ok := c.Get(keyFor(1)); !ok {
		t.Fatal("lost entry 1 before eviction")
	}
	c.Put(keyFor(3), resFor(3))
	if _, ok := c.Get(keyFor(2)); ok {
		t.Fatal("least recently used entry 2 survived eviction")
	}
	if _, ok := c.Get(keyFor(1)); !ok {
		t.Fatal("recently used entry 1 was evicted")
	}
	if _, ok := c.Get(keyFor(3)); !ok {
		t.Fatal("newest entry 3 missing")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := New(2)
	c.Put(keyFor(1), resFor(1))
	c.Put(keyFor(2), resFor(2))
	// Re-Put 1 with a new value: refresh, not insert — and 1 becomes MRU.
	c.Put(keyFor(1), resFor(100))
	c.Put(keyFor(3), resFor(3)) // should evict 2
	res, ok := c.Get(keyFor(1))
	if !ok || res.PacketsDelivered != 100 {
		t.Fatalf("refreshed entry = (%+v, %v), want delivered=100", res, ok)
	}
	if _, ok := c.Get(keyFor(2)); ok {
		t.Fatal("entry 2 should have been evicted after 1 was refreshed")
	}
}

func TestCacheCapacityFloor(t *testing.T) {
	c := New(0)
	c.Put(keyFor(1), resFor(1))
	if _, ok := c.Get(keyFor(1)); !ok {
		t.Fatal("capacity-0 cache should be raised to 1 entry")
	}
	if st := c.Stats(); st.Capacity != 1 {
		t.Fatalf("capacity = %d, want 1", st.Capacity)
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; run under
// -race this is the store's thread-safety proof.
func TestCacheConcurrent(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyFor((g + i) % 24)
				switch {
				case i%3 == 0:
					c.Put(k, resFor(i))
				case i%7 == 0:
					// Stats reads every counter Get and Put write.
					if st := c.Stats(); st.Entries > 8 {
						t.Errorf("cache grew past capacity: %d entries", st.Entries)
					}
				default:
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 8 {
		t.Fatalf("cache grew past capacity: %d entries", st.Entries)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

// TestEntryRendersTheHitReply: an entry's JSON is the result's canonical
// encoding, and its Reply the cache-hit envelope around exactly those
// bytes.
func TestEntryRendersTheHitReply(t *testing.T) {
	c := New(2)
	res := hetpnoc.Result{PacketsDelivered: 7, Events: []string{"alloc 1->8"}}
	e, err := c.Add(keyFor(1), res)
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(e.JSON) != string(js) {
		t.Errorf("entry JSON = %s, want %s", e.JSON, js)
	}
	want := `{"key":"` + keyFor(1).String() + `","cached":true,"coalesced":false,"result":` + string(js) + "}\n"
	if string(e.Reply) != want {
		t.Errorf("entry reply = %q, want %q", e.Reply, want)
	}
	if got, ok := c.Lookup(keyFor(1)); !ok || got != e {
		t.Errorf("Lookup = (%p, %v), want the entry Add returned (%p)", got, ok, e)
	}
}

func TestAddRefusesAnUnencodableResult(t *testing.T) {
	c := New(2)
	if _, err := c.Add(keyFor(1), hetpnoc.Result{FairnessJain: math.NaN()}); err == nil {
		t.Fatal("a NaN result was rendered")
	}
	if _, ok := c.Get(keyFor(1)); ok {
		t.Fatal("an unencodable result was stored")
	}
}

// TestBodyIndex: a body is answered only while its entry lives, a lookup
// through the index counts like a content-key hit, an index miss counts
// nothing, and the index holds at most capacity records, least recently
// used out first.
func TestBodyIndex(t *testing.T) {
	c := New(2)
	body := func(i int) Key { return KeyOf([]byte(fmt.Sprintf("body-%d", i))) }
	c.IndexBody(body(0), keyFor(0)) // no entry yet: not recorded
	if _, ok := c.LookupBody(body(0)); ok {
		t.Fatal("a body indexed before its entry existed was answered")
	}
	c.Put(keyFor(0), resFor(0))
	c.Put(keyFor(1), resFor(1))
	c.IndexBody(body(0), keyFor(0))
	c.IndexBody(body(1), keyFor(0)) // a second spelling of entry 0
	if e, ok := c.LookupBody(body(0)); !ok || e.Key != keyFor(0) {
		t.Fatalf("LookupBody(body 0) = (%v, %v), want entry 0", e, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("after one index hit and two index misses: %+v, want 1 hit, 0 misses", st)
	}
	c.IndexBody(body(2), keyFor(1)) // full: evicts body 1, the least recently used record
	if _, ok := c.LookupBody(body(1)); ok {
		t.Fatal("the least recently used record survived")
	}
	if st := c.Stats(); st.IndexedBodies != 2 {
		t.Fatalf("%d records, want the capacity 2", st.IndexedBodies)
	}
	c.Put(keyFor(2), resFor(2)) // evicts entry 1 (entry 0 was just used)
	if _, ok := c.LookupBody(body(2)); ok {
		t.Fatal("a body whose entry was evicted was answered")
	}
	if st := c.Stats(); st.IndexedBodies != 1 {
		t.Fatalf("the stale record was kept: %d records, want 1", st.IndexedBodies)
	}
}

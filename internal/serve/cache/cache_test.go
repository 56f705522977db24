package cache

import (
	"fmt"
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

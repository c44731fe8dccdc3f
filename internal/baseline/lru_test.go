package baseline

import (
	"testing"

	"bess/internal/page"
)

func lruPage(n int) page.ID { return page.ID{Area: 1, Page: page.No(n)} }

func TestLRUBasics(t *testing.T) {
	c := NewLRU(2)
	c.Put(lruPage(1), []byte("one"))
	c.Put(lruPage(2), []byte("two"))
	if d, ok := c.Get(lruPage(1)); !ok || string(d) != "one" {
		t.Fatal("get 1")
	}
	// 2 is now LRU; inserting 3 evicts it.
	ev, did := c.Put(lruPage(3), []byte("three"))
	if !did || ev != lruPage(2) {
		t.Fatalf("evicted %v %v", ev, did)
	}
	if _, ok := c.Get(lruPage(2)); ok {
		t.Fatal("2 still cached")
	}
	hits, misses, evicts := c.Stats()
	if hits != 1 || misses != 1 || evicts != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, evicts)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	// Update in place does not evict.
	if _, did := c.Put(lruPage(3), []byte("III")); did {
		t.Fatal("update evicted")
	}
	if d, _ := c.Get(lruPage(3)); string(d) != "III" {
		t.Fatal("update lost")
	}
}

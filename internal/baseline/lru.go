package baseline

import (
	"container/list"
	"sync"

	"bess/internal/page"
)

// LRU is a textbook least-recently-used page cache used as the baseline
// replacement policy in experiment E4 (BeSS cannot run LRU itself: with
// memory-mapped access the cache manager never sees per-access recency).
type LRU struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recent
	byID   map[page.ID]*list.Element
	hits   int64
	misses int64
	evicts int64
}

type lruEntry struct {
	id   page.ID
	data []byte
}

// NewLRU creates an LRU cache of nslots pages.
func NewLRU(nslots int) *LRU {
	if nslots < 1 {
		nslots = 1
	}
	return &LRU{cap: nslots, order: list.New(), byID: make(map[page.ID]*list.Element)}
}

// Get returns the cached page and promotes it.
func (c *LRU) Get(id page.ID) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byID[id]; ok {
		c.order.MoveToFront(e)
		c.hits++
		return e.Value.(*lruEntry).data, true
	}
	c.misses++
	return nil, false
}

// Put inserts a page, evicting the least recently used if full. Returns the
// evicted id, if any.
func (c *LRU) Put(id page.ID, data []byte) (evicted page.ID, did bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byID[id]; ok {
		e.Value.(*lruEntry).data = data
		c.order.MoveToFront(e)
		return page.ID{}, false
	}
	if c.order.Len() >= c.cap {
		back := c.order.Back()
		ent := back.Value.(*lruEntry)
		c.order.Remove(back)
		delete(c.byID, ent.id)
		c.evicts++
		evicted, did = ent.id, true
	}
	c.byID[id] = c.order.PushFront(&lruEntry{id: id, data: data})
	return evicted, did
}

// Stats reports hits, misses, and evictions.
func (c *LRU) Stats() (hits, misses, evicts int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicts
}

// Len returns the number of cached pages.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

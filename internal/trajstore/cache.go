package trajstore

import (
	"container/list"
	"sync"
)

// cacheEntry is one memoized query result, tagged with the snapshot
// version it was computed at.
type cacheEntry struct {
	key     queryKey
	version uint64
	val     any
}

// queryCache is a bounded LRU of whole query results. Entries are
// version-checked on lookup: one computed at another snapshot version is
// evicted, never served. Nothing purges on write; the bound is what caps
// the memory stale entries hold.
type queryCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[queryKey]*list.Element
}

func newQueryCache(max int) *queryCache {
	if max < 1 {
		max = 1
	}
	return &queryCache{
		max:   max,
		ll:    list.New(),
		items: make(map[queryKey]*list.Element),
	}
}

// get returns the cached result for key if it was computed at exactly
// the given snapshot version; a version mismatch evicts the entry and
// misses.
func (c *queryCache) get(key queryKey, version uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.version != version {
		c.ll.Remove(el)
		delete(c.items, key)
		return nil, false
	}
	c.ll.MoveToFront(el)
	return ent.val, true
}

// put stores a result, evicting the least recently used entry when the
// cache is full.
func (c *queryCache) put(key queryKey, version uint64, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.version = version
		ent.val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, version: version, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// len returns the live entry count (tests and debugging).
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

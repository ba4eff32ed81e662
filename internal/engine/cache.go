package engine

import (
	"container/list"
	"sync"
)

// LRU is a mutex-guarded least-recently-used cache. The serving engine keys
// it by (snapshot epoch, exact query encoding), so entries for superseded
// snapshots simply age out as traffic moves to the new epoch.
type LRU[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List
	items     map[K]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU creates a cache holding up to capacity entries (capacity must be
// positive).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity <= 0 {
		panic("engine: LRU capacity must be positive")
	}
	return &LRU[K, V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// AddIf stores a value only when keep(k) still holds, evaluated under the
// cache lock, evicting the least recently used entry if full, and reports
// whether the entry was deposited. The predicate closes a race against a
// concurrent EvictIf: a computation keyed by a snapshot epoch can be
// superseded between finishing and depositing, and an unconditional add
// would then strand an entry the sweep has already run past. With AddIf
// the predicate (typically "k's epoch is still current")
// and the insertion are atomic with respect to the sweep, so a deposit
// either lands while its epoch is live — and a later sweep removes it — or
// does not land at all.
func (c *LRU[K, V]) AddIf(k K, v V, keep func(K) bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !keep(k) {
		return false
	}
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = v
		return true
	}
	el := c.ll.PushFront(&lruEntry[K, V]{key: k, val: v})
	c.items[k] = el
	if c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry[K, V]).key)
		c.evictions++
	}
	return true
}

// EvictIf removes every entry whose key satisfies drop, returning how many
// were removed. The serving engine uses it to sweep entries of superseded
// snapshot epochs the moment a mutation publishes a new one, instead of
// letting dead entries occupy capacity until LRU pressure reaches them.
func (c *LRU[K, V]) EvictIf(drop func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if k := el.Value.(*lruEntry[K, V]).key; drop(k) {
			c.ll.Remove(el)
			delete(c.items, k)
			n++
		}
		el = next
	}
	c.evictions += int64(n)
	return n
}

// Evictions returns the number of entries removed by capacity pressure and
// by EvictIf since the cache was created.
func (c *LRU[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the lookup hit/miss counters. Lookups, not requests: a
// request that misses the engine's fast path and again once it holds a
// compute slot counts two misses.
func (c *LRU[K, V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

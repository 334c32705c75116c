package core

import (
	"sync"
	"sync/atomic"
)

// GenCache is the one bounded map behind every memo and table in the
// runtime: the policy-set intern table, the pairwise-union cache, the
// annotation-compile and DecodeSpans memos, the SQL plan cache, the
// lineage tables, and httpd's per-parameter taint filters.
//
// It evicts generationally. The cache keeps a young and an old
// generation; a lookup hits either, and a hit in the old generation
// moves the entry to the young one. Inserts go young. When the young
// generation reaches half the entry cap — or half the byte budget,
// where one is given — the old generation is dropped and the young one
// takes its place. Both caps are therefore totals across the two
// generations, and an entry that is hit at least once per generation
// survives any amount of churn: a workload that streams distinct keys
// sheds only the keys that went a full generation unused, where a
// wholesale flush at cap would drop the hot set with them.
//
// Every cached value can be recomputed, so eviction never changes what
// callers observe, only what they pay. A hit in the young generation
// takes the read lock only and allocates nothing; get-or-insert is
// atomic, so racing builders converge on one installed value.
type GenCache[K comparable, V any] struct {
	mu         sync.RWMutex
	young, old map[K]V
	youngBytes int

	maxEntries, maxBytes int
	size                 func(K, V) int // nil when there is no byte budget

	rotations, promotions atomic.Uint64
}

// NewGenCache returns a cache holding at most maxEntries entries and,
// when maxBytes > 0, at most maxBytes bytes as measured by size. The
// byte budget assumes no single entry exceeds half of it; callers keep
// their own per-entry limits below that.
func NewGenCache[K comparable, V any](maxEntries, maxBytes int, size func(K, V) int) *GenCache[K, V] {
	return &GenCache[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, size: size}
}

// Get returns the value cached under k, promoting it to the young
// generation if it was found in the old one.
func (c *GenCache[K, V]) Get(k K) (V, bool) {
	c.mu.RLock()
	v, ok := c.young[k]
	inOld := false
	if !ok {
		_, inOld = c.old[k]
	}
	c.mu.RUnlock()
	if ok || !inOld {
		return v, ok
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(k)
}

// GetOrAdd returns the value already cached under k (loaded=true), or
// installs v and returns it.
func (c *GenCache[K, V]) GetOrAdd(k K, v V) (actual V, loaded bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if got, ok := c.getLocked(k); ok {
		return got, true
	}
	c.addLocked(k, v)
	return v, false
}

func (c *GenCache[K, V]) getLocked(k K) (V, bool) {
	if v, ok := c.young[k]; ok {
		return v, true
	}
	v, ok := c.old[k]
	if ok {
		delete(c.old, k)
		c.addLocked(k, v)
		c.promotions.Add(1)
	}
	return v, ok
}

func (c *GenCache[K, V]) addLocked(k K, v V) {
	n := 0
	if c.size != nil {
		n = c.size(k, v)
	}
	if len(c.young) >= c.maxEntries/2 || c.maxBytes > 0 && c.youngBytes+n > c.maxBytes/2 {
		c.old, c.young, c.youngBytes = c.young, nil, 0
		c.rotations.Add(1)
	}
	if c.young == nil {
		c.young = make(map[K]V, 64)
	}
	c.young[k] = v
	c.youngBytes += n
}

// Len returns the number of cached entries across both generations.
func (c *GenCache[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.young) + len(c.old)
}

// Range calls fn for every cached entry, without promoting any. fn
// must not call back into the cache.
func (c *GenCache[K, V]) Range(fn func(K, V)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for k, v := range c.young {
		fn(k, v)
	}
	for k, v := range c.old {
		fn(k, v)
	}
}

// Reset drops every entry.
func (c *GenCache[K, V]) Reset() {
	c.mu.Lock()
	c.young, c.old, c.youngBytes = nil, nil, 0
	c.mu.Unlock()
}

// Rotations counts generation rotations: each one dropped the old
// generation and aged the young one.
func (c *GenCache[K, V]) Rotations() uint64 { return c.rotations.Load() }

// Promotions counts old-generation hits that moved an entry back into
// the young generation.
func (c *GenCache[K, V]) Promotions() uint64 { return c.promotions.Load() }

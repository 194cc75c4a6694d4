package cache

import (
	"container/list"
	"sync"
)

// LRU is a bounded, thread-safe least-recently-used map. The zero value
// is not usable; construct with New.
type LRU[K comparable, V any] struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; holds *entry[K, V]
	items     map[K]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	hooks     Hooks
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// Hooks are optional callbacks fired on cache events, for mirroring the
// counters into an external metrics registry. Each hook runs under the
// LRU's own mutex, synchronously with the internal counter update, so a
// mirror can never drift from Stats — the two increment or neither
// does. Hooks must therefore be cheap and must not call back into the
// cache. Nil members are skipped.
type Hooks struct {
	Hit   func()
	Miss  func()
	Evict func()
}

// SetHooks installs the event hooks, replacing any previous set. Not
// for concurrent use with cache operations — install once, right after
// New.
func (l *LRU[K, V]) SetHooks(h Hooks) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hooks = h
}

// New returns an empty LRU holding at most capacity entries; a
// capacity below one is clamped to one (an unbounded cache would turn
// a long-running service into a slow memory leak, so there is
// deliberately no "no limit" setting).
func New[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[K]*list.Element, capacity),
	}
}

// Get returns the value stored under key and marks it most recently
// used. The boolean is false on a miss.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		l.misses++
		if l.hooks.Miss != nil {
			l.hooks.Miss()
		}
		var zero V
		return zero, false
	}
	l.hits++
	if l.hooks.Hit != nil {
		l.hooks.Hit()
	}
	l.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek returns the value stored under key like Get, but does not touch
// recency or the hit/miss counters.
func (l *LRU[K, V]) Peek(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores val under key, replacing any existing value and evicting
// the least-recently-used entry if the cache is full.
func (l *LRU[K, V]) Put(key K, val V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		l.order.MoveToFront(el)
		return
	}
	if l.order.Len() >= l.capacity {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*entry[K, V]).key)
		l.evictions++
		if l.hooks.Evict != nil {
			l.hooks.Evict()
		}
	}
	l.items[key] = l.order.PushFront(&entry[K, V]{key: key, val: val})
}

// Len returns the number of entries currently stored.
func (l *LRU[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// Keys returns a snapshot of the stored keys, most recently used first.
// It does not touch recency or the hit/miss counters.
func (l *LRU[K, V]) Keys() []K {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]K, 0, l.order.Len())
	for el := l.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}

// Remove deletes the entry stored under key, reporting whether one
// existed. A removal is not an eviction (the counter is untouched).
func (l *LRU[K, V]) Remove(key K) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return false
	}
	l.order.Remove(el)
	delete(l.items, key)
	return true
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Len and Capacity are the current and maximum entry counts.
	Len, Capacity int
	// Hits and Misses count Get outcomes since construction.
	Hits, Misses uint64
	// Evictions counts entries dropped to make room.
	Evictions uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any Get.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (l *LRU[K, V]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Len:       l.order.Len(),
		Capacity:  l.capacity,
		Hits:      l.hits,
		Misses:    l.misses,
		Evictions: l.evictions,
	}
}

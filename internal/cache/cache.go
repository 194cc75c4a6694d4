package cache

import (
	"container/list"
	"sync"
)

// LRU is a bounded, thread-safe least-recently-used map. The zero value
// is not usable; construct with New.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; holds *entry[K, V]
	items    map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
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
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek returns the value stored under key like Get, but does not touch
// recency.
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
// the least-recently-used entry if the cache is full. It reports
// whether an entry was evicted.
func (l *LRU[K, V]) Put(key K, val V) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		l.order.MoveToFront(el)
		return false
	}
	evicted := l.order.Len() >= l.capacity
	if evicted {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*entry[K, V]).key)
	}
	l.items[key] = l.order.PushFront(&entry[K, V]{key: key, val: val})
	return evicted
}

// Len returns the number of entries currently stored.
func (l *LRU[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// Keys returns a snapshot of the stored keys, most recently used first.
// It does not touch recency.
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
// existed. A removal frees a slot without being an eviction.
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

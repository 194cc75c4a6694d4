package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutAndEviction(t *testing.T) {
	l := New[string, int](2)
	if _, ok := l.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	if l.Put("a", 1) || l.Put("b", 2) {
		t.Fatal("Put into a cache with room reported an eviction")
	}
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	// "a" is now most recently used, so inserting "c" must evict "b".
	if !l.Put("c", 3) {
		t.Error("Put into a full cache reported no eviction")
	}
	if _, ok := l.Get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) after eviction = %d, %v; want 1, true", v, ok)
	}
	if v, ok := l.Get("c"); !ok || v != 3 {
		t.Errorf("Get(c) = %d, %v; want 3, true", v, ok)
	}
	if n := l.Len(); n != 2 {
		t.Errorf("Len() = %d, want 2", n)
	}
}

func TestPutReplacesInPlace(t *testing.T) {
	l := New[string, int](2)
	l.Put("a", 1)
	l.Put("b", 2)
	// Replacement, not insertion: nothing may be evicted.
	if l.Put("a", 10) || l.Len() != 2 {
		t.Errorf("replacement evicted (len %d)", l.Len())
	}
	if v, _ := l.Get("a"); v != 10 {
		t.Errorf("Get(a) = %d after replacement, want 10", v)
	}
}

func TestCapacityClamp(t *testing.T) {
	l := New[int, int](-5)
	l.Put(1, 1)
	if !l.Put(2, 2) || l.Len() != 1 {
		t.Errorf("clamped cache held %d entries without evicting; want capacity 1", l.Len())
	}
}

// The cache is hit concurrently by every service worker; exercise it
// under the race detector.
func TestConcurrentAccess(t *testing.T) {
	l := New[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 100
				if v, ok := l.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				l.Put(k, k)
			}
		}(g)
	}
	wg.Wait()
	if l.Len() > 64 {
		t.Errorf("len %d exceeds capacity", l.Len())
	}
}

func ExampleLRU() {
	l := New[string, string](2)
	l.Put("x", "ex")
	l.Put("y", "why")
	l.Get("x")
	evicted := l.Put("z", "zed") // evicts "y", the least recently used
	_, okY := l.Get("y")
	x, _ := l.Get("x")
	fmt.Println(x, okY, evicted)
	// Output: ex false true
}

func TestKeysAndRemove(t *testing.T) {
	l := New[string, int](3)
	l.Put("a", 1)
	l.Put("b", 2)
	l.Put("c", 3)
	l.Get("a") // a becomes most recently used
	got := l.Keys()
	want := []string{"a", "c", "b"}
	if len(got) != len(want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
	if !l.Remove("c") {
		t.Error("Remove of a present key reported false")
	}
	if l.Remove("c") {
		t.Error("second Remove of the same key reported true")
	}
	if _, ok := l.Get("c"); ok {
		t.Error("removed key still retrievable")
	}
	if l.Len() != 2 {
		t.Errorf("Len() = %d after removal, want 2", l.Len())
	}
	// The freed slot must be reusable without evicting.
	if l.Put("d", 4) || l.Len() != 3 {
		t.Errorf("refill after Remove evicted (len %d)", l.Len())
	}
}

func TestPeekLeavesRecencyAndCounters(t *testing.T) {
	l := New[string, int](2)
	l.Put("a", 1)
	l.Put("b", 2)
	if v, ok := l.Peek("a"); !ok || v != 1 {
		t.Errorf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := l.Peek("z"); ok {
		t.Error("Peek of an absent key reported true")
	}
	l.Put("c", 3) // evicts "a": the Peek did not make it recently used
	if _, ok := l.Peek("a"); ok {
		t.Error("Peek refreshed recency")
	}
}

package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestGenCache(t *testing.T) {
	const maxEntries, maxBytes = 64, 1024
	size := func(_ int, v string) int { return len(v) }

	t.Run("bounds hold under churn", func(t *testing.T) {
		byCount := NewGenCache[int, string](maxEntries, 0, nil)
		byBytes := NewGenCache(maxEntries, maxBytes, size)
		for i := 0; i < 3*maxEntries; i++ {
			byCount.GetOrAdd(i, "v")
			byBytes.GetOrAdd(i, fmt.Sprintf("%0*d", 16+i%64, i))
			if n := byCount.Len(); n > maxEntries {
				t.Fatalf("after %d inserts: %d entries, cap %d", i+1, n, maxEntries)
			}
			total := 0
			byBytes.Range(func(k int, v string) { total += size(k, v) })
			if total > maxBytes {
				t.Fatalf("after %d inserts: %d bytes, budget %d", i+1, total, maxBytes)
			}
		}
		if byCount.Rotations() < 2 || byBytes.Rotations() < 2 {
			t.Errorf("churn caused %d / %d rotations, want at least 2 each", byCount.Rotations(), byBytes.Rotations())
		}
	})

	t.Run("hot key survives rotations", func(t *testing.T) {
		c := NewGenCache[int, *int](maxEntries, 0, nil)
		hot := new(int)
		c.GetOrAdd(-1, hot)
		for i := 0; i < 3*maxEntries; i++ {
			c.GetOrAdd(i, new(int))
			// Touch the hot key more often than once per generation
			// (maxEntries/2 inserts).
			if i%8 == 0 {
				if v, ok := c.Get(-1); !ok || v != hot {
					t.Fatalf("hot key lost after %d churned inserts", i)
				}
			}
		}
		if c.Rotations() < 2 || c.Promotions() == 0 {
			t.Errorf("rotations=%d promotions=%d, want >=2 and >0", c.Rotations(), c.Promotions())
		}
	})

	t.Run("concurrent get-or-insert converges", func(t *testing.T) {
		c := NewGenCache[string, *int](maxEntries, 0, nil)
		churn := NewGenCache[int, int](maxEntries, 0, nil)
		const workers = 16
		got := make([]*int, workers)
		installed := make([]bool, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var loaded bool
				got[i], loaded = c.GetOrAdd("k", new(int))
				installed[i] = !loaded
				// Overlapping churn across rotations and promotions: a
				// key must only ever map to its own value.
				for k := 0; k < 3*maxEntries; k++ {
					add, get := (k*7+i)%(2*maxEntries), k%(2*maxEntries)
					churn.GetOrAdd(add, add)
					if v, ok := churn.Get(get); ok && v != get {
						t.Errorf("key %d holds %d", get, v)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		winners := 0
		for i := range got {
			if got[i] != got[0] {
				t.Fatal("concurrent GetOrAdd returned different values")
			}
			if installed[i] {
				winners++
			}
		}
		if winners != 1 {
			t.Errorf("%d callers installed the value, want 1", winners)
		}
		if n := churn.Len(); n > maxEntries {
			t.Errorf("concurrent churn left %d entries, cap %d", n, maxEntries)
		}
	})
}

// TestMemoHitPathsDoNotAllocate pins the cost of a warm lookup in each
// GenCache on the tracking hot path: a hit allocates nothing.
func TestMemoHitPathsDoNotAllocate(t *testing.T) {
	RegisterPolicyClass("core.internPolicyA", &internPolicyA{})
	ann, err := EncodeSpans(NewStringPolicy("cell", &internPolicyA{Tag: "alloc"}))
	if err != nil {
		t.Fatal(err)
	}
	p := &internPolicyA{Tag: "alloc-intern"}
	NewPolicySet(p).Intern()
	fresh := NewPolicySet(p) // equal to the canonical set, not interned itself
	a := NewPolicySet(&internPolicyA{Tag: "alloc-a"}).Intern()
	b := NewPolicySet(&internPolicyA{Tag: "alloc-b"}).Intern()

	cases := []struct {
		name string
		hit  func()
	}{
		{"DecodeSpans", func() { _, _ = DecodeSpans("cell", ann) }},
		{"CompileAnnotation", func() { _, _ = CompileAnnotation(ann) }},
		{"Intern", func() { _ = fresh.Intern() }},
		{"Union", func() { _ = a.Union(b) }},
	}
	for _, c := range cases {
		c.hit() // warm
		if n := testing.AllocsPerRun(100, c.hit); n != 0 {
			t.Errorf("%s hit: %v allocs, want 0", c.name, n)
		}
	}
}

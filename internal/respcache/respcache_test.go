package respcache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fixedNow installs a controllable clock on every shard and returns the
// advance knob.
func fixedNow[V any](c *Cache[V]) func(time.Duration) {
	now := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	for i := range c.shards {
		c.shards[i].now = clock
	}
	return func(d time.Duration) { now = now.Add(d) }
}

// get probes key the way the serving hot path does.
func get[V any](c *Cache[V], key string) (V, bool) { return c.GetBytes([]byte(key)) }

// fillWith returns a fill that yields v and counts its runs in *n.
func fillWith[V any](v V, n *int) func(Rev) V {
	return func(Rev) V { *n++; return v }
}

// live counts the entries held across all shards, expired or not.
func live[V any](c *Cache[V]) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

func TestGetPut(t *testing.T) {
	c := New[string](32, time.Minute)
	if _, ok := get(c, "a"); ok {
		t.Fatal("hit on empty cache")
	}
	fills := 0
	if v := c.GetOrFill("a", fillWith("1", &fills)); v != "1" {
		t.Fatalf("miss fill = %q", v)
	}
	if v := c.GetOrFill("a", fillWith("2", &fills)); v != "1" {
		t.Fatalf("second GetOrFill = %q, want the cached fill", v)
	}
	if v, ok := get(c, "a"); !ok || v != "1" {
		t.Fatalf("GetBytes(a) = %q, %v", v, ok)
	}
	if fills != 1 {
		t.Fatalf("%d fills ran, want 1", fills)
	}
	// The GetBytes miss on the empty cache is not counted: the
	// GetOrFill fall-through behind it does the miss accounting.
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", hits, misses)
	}
}

// TestLRUEviction exercises one shard directly: eviction order within a
// shard is exact LRU (cache-wide capacity is approximate by design).
func TestLRUEviction(t *testing.T) {
	var s lruShard[int]
	s.init(3, time.Minute)
	put := func(k string, v int) { s.mu.Lock(); s.put(k, v); s.mu.Unlock() }
	get := func(k string) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		e, ok := s.items[k]
		if ok {
			s.moveToFront(e)
		}
		return ok
	}
	put("a", 1)
	put("b", 2)
	put("c", 3)
	get("a") // refresh a: b becomes least recent
	put("d", 4)
	if get("b") {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !get(k) {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if len(s.items) != 3 {
		t.Errorf("shard holds %d entries, want 3", len(s.items))
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New[string](32, time.Minute)
	advance := fixedNow(c)
	fills := 0
	c.GetOrFill("a", fillWith("1", &fills))
	advance(30 * time.Second)
	if _, ok := get(c, "a"); !ok {
		t.Fatal("expired too early")
	}
	advance(31 * time.Second)
	if _, ok := get(c, "a"); ok {
		t.Fatal("entry outlived its TTL")
	}
	if n := live(c); n != 0 {
		t.Errorf("expired entry still held: %d entries", n)
	}
	// A fresh fill restarts the TTL.
	if v := c.GetOrFill("a", fillWith("2", &fills)); v != "2" {
		t.Fatalf("refill after expiry = %q", v)
	}
	advance(59 * time.Second)
	if v, ok := get(c, "a"); !ok || v != "2" {
		t.Fatal("refilled entry should be live")
	}
}

func TestInvalidate(t *testing.T) {
	c := New[string](32, time.Minute)
	fills := 0
	c.GetOrFill("disc|https://x.test/|00", fillWith("a", &fills))
	c.GetOrFill("disc|https://x.test/|10", fillWith("b", &fills))
	c.GetOrFill("trends|00", fillWith("d", &fills))

	c.Invalidate("trends|00")
	if _, ok := get(c, "trends|00"); ok {
		t.Error("Invalidate left the entry")
	}
	// Invalidating one view of a subject leaves the others.
	c.Invalidate("disc|https://x.test/|00")
	if _, ok := get(c, "disc|https://x.test/|00"); ok {
		t.Error("invalidated view survived")
	}
	if _, ok := get(c, "disc|https://x.test/|10"); !ok {
		t.Error("sibling view dropped")
	}
}

// TestFillSurvivesOtherKeyInvalidation: the tombstone is per key, so
// an invalidation of a DIFFERENT key in the same shard while a fill is
// in flight must not discard it — otherwise steady writes anywhere
// would starve the whole cache. (A fill racing an invalidation of its
// OWN key is TestGetOrFillRacingInvalidateNotCached.)
func TestFillSurvivesOtherKeyInvalidation(t *testing.T) {
	c := New[string](32, time.Minute)
	key := "disc|u|01"
	other := sameShardKey(c, shardOf(c, key), 0)
	c.GetOrFill(key, func(Rev) string {
		c.Invalidate(other) // the write path fires mid-fill, elsewhere
		return "unrelated"
	})
	if v, ok := get(c, key); !ok || v != "unrelated" {
		t.Fatalf("unrelated invalidation discarded an in-flight fill: %q %v", v, ok)
	}
}

func TestTombOverflowFloorsInFlightPuts(t *testing.T) {
	c := New[string](16, time.Minute) // 1 entry per shard
	// Overflow one shard's tombstone map while a fill is in flight; the
	// epoch it snapshotted before the overflow must then be rejected
	// (conservative fallback).
	key := "victim"
	s := shardOf(c, key)
	c.GetOrFill(key, func(Rev) string {
		for i := 0; len(s.tomb) > 0 || i == 0; i++ {
			c.Invalidate(sameShardKey(c, s, i))
		}
		return "stale"
	})
	if _, ok := get(c, key); ok {
		t.Fatal("pre-overflow fill cached after tomb reset")
	}
	fills := 0
	c.GetOrFill(key, fillWith("fresh", &fills))
	if v, ok := get(c, key); !ok || v != "fresh" {
		t.Fatalf("fresh fill rejected after tomb reset: %q %v", v, ok)
	}
}

// sameShardKey generates the i-th probe key landing in shard s.
func sameShardKey[V any](c *Cache[V], s *lruShard[V], i int) string {
	for j := i * 1000; ; j++ {
		k := fmt.Sprintf("probe%d", j)
		if shardOf(c, k) == s {
			return k
		}
	}
}

// TestGetOrFillSingleflight pins the stampede contract: with one lead
// fill blocked mid-render, every concurrent miss on the key coalesces
// onto it — exactly one fill runs, and everyone gets its value. (A
// goroutine arriving after the fill completes hits the now-cached
// entry, so the fill count stays 1 regardless of scheduling.)
func TestGetOrFillSingleflight(t *testing.T) {
	c := New[string](32, time.Minute)
	fills := 0
	filling := make(chan struct{})
	release := make(chan struct{})
	lead := make(chan string, 1)
	go func() {
		v := c.GetOrFill("disc|u|00", func(Rev) string {
			fills++ // only the lead runs fills; no lock needed
			close(filling)
			<-release
			return "rendered once"
		})
		lead <- v
	}()
	<-filling

	const followers = 16
	got := make(chan string, followers)
	var launched sync.WaitGroup
	for i := 0; i < followers; i++ {
		launched.Add(1)
		go func() {
			launched.Done()
			got <- c.GetOrFill("disc|u|00", func(Rev) string {
				t.Error("follower ran its own fill")
				return "duplicate render"
			})
		}()
	}
	launched.Wait()
	close(release)
	if v := <-lead; v != "rendered once" {
		t.Fatalf("lead got %q", v)
	}
	for i := 0; i < followers; i++ {
		if v := <-got; v != "rendered once" {
			t.Fatalf("follower got %q", v)
		}
	}
	if fills != 1 {
		t.Fatalf("%d fills ran, want 1", fills)
	}
	if v, ok := get(c, "disc|u|00"); !ok || v != "rendered once" {
		t.Fatalf("fill result not cached: %q %v", v, ok)
	}
}

// TestGetOrFillRacingInvalidateNotCached: a fill in flight when its key
// is invalidated still answers its waiters, but its result must never
// be cached — the next request re-renders.
func TestGetOrFillRacingInvalidateNotCached(t *testing.T) {
	c := New[string](32, time.Minute)
	filling := make(chan struct{})
	release := make(chan struct{})
	done := make(chan string, 1)
	go func() {
		done <- c.GetOrFill("disc|u|00", func(Rev) string {
			close(filling)
			<-release
			return "pre-write render"
		})
	}()
	<-filling
	c.Invalidate("disc|u|00") // the write path fires mid-fill
	close(release)
	if v := <-done; v != "pre-write render" {
		t.Fatalf("waiter got %q", v)
	}
	if _, ok := get(c, "disc|u|00"); ok {
		t.Fatal("fill racing an invalidation was cached stale")
	}
	refills := 0
	c.GetOrFill("disc|u|00", fillWith("post-write render", &refills))
	if refills != 1 {
		t.Fatalf("refills = %d, want 1: the post-invalidation request must run a fresh fill", refills)
	}
	if v, ok := get(c, "disc|u|00"); !ok || v != "post-write render" {
		t.Fatalf("fresh fill not cached: %q %v", v, ok)
	}
}

// TestGetOrFillPanickingFillDoesNotWedgeKey: a fill that panics (an
// HTTP handler's panic is recovered per request by net/http) must
// resolve its flight — waiters render for themselves, the panic
// propagates to the leader, nothing is cached, and the key keeps
// working afterwards.
func TestGetOrFillPanickingFillDoesNotWedgeKey(t *testing.T) {
	c := New[string](32, time.Minute)
	filling := make(chan struct{})
	release := make(chan struct{})
	leadDone := make(chan any, 1)
	go func() {
		defer func() { leadDone <- recover() }()
		c.GetOrFill("disc|u|00", func(Rev) string {
			close(filling)
			<-release
			panic("render exploded")
		})
	}()
	<-filling
	waiter := make(chan string, 1)
	go func() {
		waiter <- c.GetOrFill("disc|u|00", func(Rev) string { return "waiter fallback" })
	}()
	// Give the waiter a moment to coalesce onto the doomed flight, then
	// let the leader explode.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if r := <-leadDone; r == nil {
		t.Fatal("panic did not propagate to the filler")
	}
	if v := <-waiter; v != "waiter fallback" {
		t.Fatalf("waiter got %q", v)
	}
	if _, ok := get(c, "disc|u|00"); ok {
		t.Fatal("panicked fill left a cached value")
	}
	// The key must be fully functional again.
	if v := c.GetOrFill("disc|u|00", func(Rev) string { return "recovered" }); v != "recovered" {
		t.Fatalf("post-panic fill got %q", v)
	}
	if v, ok := get(c, "disc|u|00"); !ok || v != "recovered" {
		t.Fatalf("post-panic fill not cached: %q %v", v, ok)
	}
}

// TestGetOrFillConcurrent hammers GetOrFill/Invalidate/Update from many
// goroutines; run under -race. The invariant checked at the end is the
// coalescing ledger: total fills can never exceed total misses.
func TestGetOrFillConcurrent(t *testing.T) {
	c := New[int](64, time.Minute)
	var fillCount, updates int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key%d", i%16)
				c.GetOrFill(k, func(Rev) int {
					mu.Lock()
					fillCount++
					mu.Unlock()
					return i
				})
				switch {
				case i%37 == 0:
					c.Invalidate(k)
				case i%11 == 0:
					if c.Update(k, func(v int, _ Rev) int { return v + 1 }) {
						mu.Lock()
						updates++
						mu.Unlock()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	_, misses := c.Stats()
	mu.Lock()
	defer mu.Unlock()
	if uint64(fillCount) != misses {
		t.Errorf("fills = %d, misses = %d: every miss must run exactly one fill", fillCount, misses)
	}
}

func TestUpdatePatchesLiveEntriesOnly(t *testing.T) {
	c := New[string](32, time.Minute)
	advance := fixedNow(c)
	if c.Update("a", func(v string, _ Rev) string { return v + "!" }) {
		t.Fatal("Update patched a missing entry")
	}
	var filled, patched Rev
	c.GetOrFill("a", func(rev Rev) string { filled = rev; return "v1" })
	if !c.Update("a", func(v string, rev Rev) string { patched = rev; return v + "+patch" }) {
		t.Fatal("Update missed a live entry")
	}
	if v, _ := get(c, "a"); v != "v1+patch" {
		t.Fatalf("patched value = %q", v)
	}
	// The patch is a new generation: its Rev (and so its ETag) can
	// never equal the filled one.
	if patched.Seq <= filled.Seq || patched.ETag() == filled.ETag() {
		t.Fatalf("patch re-stamped %+v after fill %+v", patched, filled)
	}
	// Patching must not extend the entry's life.
	advance(61 * time.Second)
	if c.Update("a", func(string, Rev) string { return "resurrected" }) {
		t.Fatal("Update patched an expired entry")
	}
	if _, ok := get(c, "a"); ok {
		t.Fatal("expired entry served after failed patch")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](64, time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key%d", (g*500+i)%100)
				c.GetOrFill(k, func(Rev) int { return i })
				get(c, k)
				if i%50 == 0 {
					c.Invalidate(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := live(c); n > 64 {
		t.Errorf("%d entries held, exceeds capacity", n)
	}
}

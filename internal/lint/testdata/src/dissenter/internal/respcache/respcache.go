// Package respcache is a typecheck-only stub of the real response
// cache for lint fixtures: cachecoherence matches the Cache methods by
// receiver type and package path.
package respcache

type Cache[V any] struct{}

type Rev struct {
	Epoch, Seq uint64
}

func (c *Cache[V]) GetOrFill(key string, fill func(Rev) V) V { return fill(Rev{}) }

func (c *Cache[V]) Update(key string, f func(V, Rev) V) bool { return false }

func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	var zero V
	return zero, false
}

func (c *Cache[V]) Invalidate(key string) {}

func (c *Cache[V]) Stats() (hits, misses uint64) { return 0, 0 }

// Package respcache is a small sharded LRU + TTL cache for rendered
// responses. The HTTP simulators put it in front of their hot endpoints
// — comment listings, user profiles, trends — so that heavy concurrent
// crawler traffic hits a cached rendering instead of re-walking the
// platform store on every request.
//
// Keys are strings with a "<endpoint>|<subject>|<view>" layout by
// convention; a mutation invalidates every view of one subject with
// exact Invalidate calls over the enumerable view suffixes — or, for
// entries whose mutable parts the writer can recompute cheaply,
// patches the live entry in place with Update. GetOrFill is the one
// fill path: it renders outside the lock under the epoch protocol —
// the key's epoch is snapshotted before the fill reads the backing
// store, and the insert is discarded if the key was invalidated in
// between, so a render that raced a write is never cached stale.
// Entries expire TTL after insertion regardless of use (no
// read-refresh): explicit invalidation is the primary mechanism and
// the TTL is only a backstop against writes that bypass it.
//
// GetOrFill also coalesces misses (singleflight): N concurrent misses
// on one key run ONE fill, and the waiters are handed the filler's
// result directly. The fill composes with the tombstone protocol — the
// filler's epoch is snapshotted under the same lock acquisition that
// published its flight, so a fill racing an invalidation of its key is
// served to the already-enqueued waiters but never cached. Invalidate
// also detaches any in-flight fill for the key, so a miss arriving
// AFTER the invalidation starts a fresh fill instead of adopting the
// doomed one.
//
// # Composed-response entries
//
// For serving pre-composed response bytes (body + write-time gzip
// variant + strong ETag) the cache stamps each content generation with
// a Rev: the shard's invalidation epoch plus a shard-monotonic
// sequence number, minted under the same lock acquisition that makes
// the generation reachable. The lifecycle is:
//
//   - GetOrFill mints the Rev when the fill's flight is published; the
//     fill composes the final response once (render, gzip, ETag from
//     the Rev) and the composed form is cached with the entry.
//   - Update patches the entry in place AND re-stamps it with a fresh
//     Rev under the shard lock, so the patched generation gets a new
//     ETag atomically with the content change — a client holding the
//     previous ETag can never revalidate against the patched body.
//   - Invalidate bumps the shard epoch, so any generation stamped
//     before it carries a Rev that no later generation can repeat.
//
// Because the sequence number only moves forward, two distinct
// generations of one key never share an ETag, which is the property
// the HTTP layer's If-None-Match handling relies on: a 304 is only
// ever issued when the client's validator equals the ETag of the
// currently cached generation, and an invalidated epoch can never
// produce that equality. GetBytes is the companion zero-allocation
// read: it accepts the key as a scratch []byte so the serving hot path
// can probe the cache without building a string key.
//
// Like the platform store it fronts, the cache is split across
// independently locked shards by key hash, so concurrent hits on
// different pages do not contend.
package respcache

import (
	"strconv"
	"sync"
	"time"

	"dissenter/internal/hashkit"
)

const cacheShards = 16

// Cache is a fixed-capacity sharded LRU with per-entry expiry. The zero
// value is not usable; construct with New.
type Cache[V any] struct {
	shards [cacheShards]lruShard[V]
}

// lruShard is one independently locked segment: an intrusive
// doubly-linked LRU list over a map, with per-key invalidation
// tombstones. Capacity and eviction are per shard, so the cache-wide
// capacity is approximate under skewed key hashing.
type lruShard[V any] struct {
	mu      sync.Mutex
	maxSize int
	ttl     time.Duration
	now     func() time.Time
	items   map[string]*entry[V]
	// head is most recent.
	head, tail *entry[V]
	// epoch increments on every invalidation in this shard. tomb
	// records, per exact key, the epoch of its latest invalidation, so
	// GetOrFill can discard a render that began before that key was
	// invalidated without penalizing other keys. tombFloor discards all
	// older in-flight fills; it only advances when tomb overflows.
	epoch     uint64
	tomb      map[string]uint64
	tombFloor uint64
	// seq counts content generations stamped in this shard (fills and
	// in-place patches). Together with epoch it forms the Rev identity
	// of one generation; it never rewinds, so ETags derived from it
	// never repeat across generations of any key in the shard.
	seq uint64
	// flights holds the in-progress GetOrFill per key: followers of a
	// live flight wait on done instead of rendering.
	flights map[string]*flight[V]

	hits, misses uint64
}

// flight is one in-progress fill. val and failed are published before
// done closes, so waiters reading after <-done observe them. failed
// marks a fill that panicked: the flight is closed so waiters never
// wedge, and they render for themselves instead of adopting a value
// that does not exist.
type flight[V any] struct {
	done   chan struct{}
	val    V
	failed bool
}

type entry[V any] struct {
	key        string
	val        V
	expires    time.Time
	prev, next *entry[V]
}

// New builds a cache holding roughly maxSize entries (rounded up to a
// multiple of the shard count), each valid for ttl.
func New[V any](maxSize int, ttl time.Duration) *Cache[V] {
	perShard := (maxSize + cacheShards - 1) / cacheShards
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].init(perShard, ttl)
	}
	return c
}

func (s *lruShard[V]) init(maxSize int, ttl time.Duration) {
	s.maxSize = maxSize
	s.ttl = ttl
	s.now = time.Now
	s.items = make(map[string]*entry[V], maxSize)
	s.tomb = make(map[string]uint64)
	s.flights = make(map[string]*flight[V])
}

// shardOf returns the shard that owns key.
func shardOf[V any](c *Cache[V], key string) *lruShard[V] {
	return &c.shards[hashkit.FNV1a(key)%cacheShards]
}

// Rev identifies one content generation of one cache key: the shard's
// invalidation epoch when the generation was stamped plus a
// shard-monotonic sequence number. Two distinct generations never
// share a Rev (Seq only moves forward), which makes ETag a sound
// strong validator: byte-different bodies always carry different tags.
// Stamped generations always have Seq >= 1.
type Rev struct {
	Epoch, Seq uint64
}

// ETag renders the Rev as a strong HTTP entity tag.
func (r Rev) ETag() string {
	return `"` + strconv.FormatUint(r.Epoch, 16) + "-" + strconv.FormatUint(r.Seq, 16) + `"`
}

// GetOrFill returns the cached value for key, or renders it with fill
// — coalescing concurrent misses so N requests racing on one cold key
// run ONE fill. fill receives the Rev stamped for the generation it is
// about to produce, minted under the same lock acquisition that
// published the fill's flight (see the package comment's
// composed-response lifecycle). Followers of a flight count as hits in
// Stats, since the cache saved their render. The fill runs outside the
// shard lock with the key's epoch snapshotted first: if the key is
// invalidated while the fill is in flight, the result is still handed
// to the waiters that had already coalesced (they arrived before the
// invalidation) but is never cached, and misses arriving after the
// invalidation start a fresh fill (Invalidate detaches the flight). A
// waiter whose flight leader panicked renders for itself with a freshly
// minted Rev, uncached. fill must not call back into the cache for the
// same key.
func (c *Cache[V]) GetOrFill(key string, fill func(Rev) V) V {
	s := shardOf(c, key)
	s.mu.Lock()
	if e, ok := s.items[key]; ok && !s.now().After(e.expires) {
		s.moveToFront(e)
		s.hits++
		v := e.val
		s.mu.Unlock()
		return v
	}
	if f, ok := s.flights[key]; ok {
		s.hits++
		s.mu.Unlock()
		<-f.done
		if f.failed {
			// The leader's fill panicked; render for ourselves rather
			// than serve a value that was never produced. Mint a real
			// stamp so the self-render's ETag is not the shared zero.
			s.mu.Lock()
			s.seq++
			rev := Rev{Epoch: s.epoch, Seq: s.seq}
			s.mu.Unlock()
			return fill(rev)
		}
		return f.val
	}
	f := &flight[V]{done: make(chan struct{})}
	s.flights[key] = f
	s.seq++
	rev := Rev{Epoch: s.epoch, Seq: s.seq}
	epoch := rev.Epoch
	s.misses++
	s.mu.Unlock()

	// The flight MUST be resolved even if fill panics (an HTTP handler's
	// panic is recovered per request by net/http): an unclosed flight
	// would wedge every present and future waiter on this key forever.
	completed := false
	defer func() {
		s.mu.Lock()
		if s.flights[key] == f {
			delete(s.flights, key)
		}
		s.mu.Unlock()
		f.failed = !completed
		close(f.done)
	}()

	v := fill(rev)
	completed = true

	s.mu.Lock()
	if !(epoch < s.tombFloor || s.tomb[key] > epoch) {
		s.put(key, v)
	}
	s.mu.Unlock()
	f.val = v
	return v
}

// Update patches the live entry for key in place, leaving its LRU
// position and expiry untouched — the in-place alternative to
// Invalidate for entries whose mutable parts the writer can recompute
// cheaply (a vote tally span, an appended fragment). f receives a
// fresh Rev, minted under the shard lock atomically with the patch,
// which the patched value must adopt as its new generation identity
// (re-derive the ETag, drop the stale composed bytes): the re-stamp is
// what guarantees a client revalidating with the pre-patch ETag gets a
// full 200 with the new body, never a 304. f runs under the shard lock
// and must be fast; it must not call back into the cache. Returns
// false when no unexpired entry exists — callers then fall back to
// Invalidate, whose tombstone also discards any fill racing the write.
func (c *Cache[V]) Update(key string, f func(V, Rev) V) bool {
	s := shardOf(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok || s.now().After(e.expires) {
		return false
	}
	s.seq++
	//lint:ignore lockscope Update's contract: f patches the entry under the shard lock so racing patches serialize; it must be fast and not re-enter the cache
	e.val = f(e.val, Rev{Epoch: s.epoch, Seq: s.seq})
	return true
}

// GetBytes returns the live entry for key, passed as a scratch []byte:
// the lookup uses the compiler's non-allocating
// map-index-by-converted-bytes form and hashes the bytes directly, so a
// caller that composes its key into a stack buffer probes the cache
// with zero heap allocations. A hit counts in Stats and marks the
// entry most recently used; a miss does NOT count — GetBytes is the
// fast-path probe in front of GetOrFill, and the fall-through call is
// the one that does the miss accounting (and possibly still hits, via
// an entry or flight that appeared in between).
func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	var zero V
	s := &c.shards[hashkit.FNV1aBytes(key)%cacheShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[string(key)]
	if !ok {
		return zero, false
	}
	if s.now().After(e.expires) {
		s.remove(e)
		return zero, false
	}
	s.moveToFront(e)
	s.hits++
	return e.val, true
}

// Invalidate drops the entry for key, if any, and tombstones the key
// so an in-flight GetOrFill for it (snapshotted earlier) is discarded.
// A live flight for the key is also detached: its waiters still
// receive its value, but later misses start a fresh fill.
func (c *Cache[V]) Invalidate(key string) {
	s := shardOf(c, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	s.tomb[key] = s.epoch
	delete(s.flights, key)
	// Bound the tombstone map: on overflow, fall back to discarding all
	// of this shard's in-flight fills once and start over.
	if len(s.tomb) > s.maxSize {
		s.tomb = make(map[string]uint64)
		s.tombFloor = s.epoch
	}
	if e, ok := s.items[key]; ok {
		s.remove(e)
	}
}

// Stats reports cumulative hit/miss counts.
func (c *Cache[V]) Stats() (hits, misses uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// --- shard internals (callers hold s.mu unless noted) -------------------

func (s *lruShard[V]) put(key string, val V) {
	if e, ok := s.items[key]; ok {
		e.val = val
		e.expires = s.now().Add(s.ttl)
		s.moveToFront(e)
		return
	}
	e := &entry[V]{key: key, val: val, expires: s.now().Add(s.ttl)}
	s.items[key] = e
	s.pushFront(e)
	if len(s.items) > s.maxSize {
		s.remove(s.tail)
	}
}

func (s *lruShard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *lruShard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *lruShard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *lruShard[V]) remove(e *entry[V]) {
	s.unlink(e)
	delete(s.items, e.key)
}

// Package flight is the repo's one in-flight-dedup cache. Concurrent
// lookups of a key collapse onto a single fill: the first caller runs it,
// every caller that arrives while it runs waits for its value, and the
// completed entry stays cached up to a per-shard cap. The runner's
// result, compile, render and plan layers, its uniforms-hash memo, and the
// memo store's cross-engine singleflight are all instances of it.
package flight

import (
	"context"
	"sync"
	"sync/atomic"
)

// Shards is the number of independently locked shards; a key lives in
// shard shardOf(key) mod Shards. It must be a power of two.
const Shards = 16

// entry is one cache slot; its fields are guarded by the shard lock. The
// first lookup that finds the entry in flight creates done, so a fill
// nobody waits for allocates no channel. val, filled and withdrawn are set
// once, when the fill returns, before done is closed; waiters read them
// after done closes. withdrawn means the fill failed and the entry left the
// map, so waiters retry the lookup.
type entry[V any] struct {
	done      chan struct{}
	val       V
	joined    int32 // lookups that found this entry
	filled    bool
	withdrawn bool
}

type shard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
}

// Cache is a sharded map in which each key is filled at most once at a
// time. It is safe for concurrent use; the zero value is not valid — use
// New.
type Cache[K comparable, V any] struct {
	shards    [Shards]shard[K, V]
	shardOf   func(K) byte
	perShard  int
	hits      atomic.Uint64
	evictions atomic.Uint64
}

// New returns a cache retaining at most perShard completed entries per
// shard; perShard 0 retains nothing, so the cache only dedups fills that
// are in flight. shardOf picks a key's shard and should spread keys
// evenly (a byte of a content hash does). Shard maps are made on first
// insertion.
func New[K comparable, V any](perShard int, shardOf func(K) byte) *Cache[K, V] {
	return &Cache[K, V]{shardOf: shardOf, perShard: perShard}
}

// SetCap changes the per-shard cap for future insertions. Not safe to call
// concurrently with Do.
func (c *Cache[K, V]) SetCap(perShard int) { c.perShard = perShard }

// Do returns k's value: a cached one, the one an in-flight fill of k
// produces, or fill's own when no entry exists. A canceled ctx aborts a
// wait on another caller's fill with ctx.Err(); fill itself must honour
// ctx if it wants to. When fill returns an error its entry is withdrawn:
// this caller gets the error and every waiter retries the lookup, so a
// failed fill never poisons the cache. Hits counts only lookups that were
// delivered a value another caller's fill produced. Inserting into a full
// shard evicts one completed entry — any one, never an in-flight entry,
// so a shard can overshoot its cap by its in-flight fills.
func (c *Cache[K, V]) Do(ctx context.Context, k K, fill func() (V, error)) (V, error) {
	s := &c.shards[c.shardOf(k)&(Shards-1)]
	for {
		s.mu.Lock()
		if e, ok := s.m[k]; ok {
			e.joined++
			if e.filled {
				s.mu.Unlock()
				c.hits.Add(1)
				return e.val, nil
			}
			if e.done == nil {
				e.done = make(chan struct{})
			}
			done := e.done
			s.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
			if e.withdrawn {
				continue // retry the lookup
			}
			c.hits.Add(1)
			return e.val, nil
		}
		e := &entry[V]{}
		if c.perShard > 0 && len(s.m) >= c.perShard {
			c.evictCompleted(s)
		}
		if s.m == nil {
			s.m = make(map[K]*entry[V])
		}
		s.m[k] = e
		s.mu.Unlock()

		v, err := fill()
		s.mu.Lock()
		e.val, e.filled, e.withdrawn = v, err == nil, err != nil
		if e.withdrawn || c.perShard == 0 {
			delete(s.m, k)
		}
		if e.done != nil {
			close(e.done)
		}
		s.mu.Unlock()
		return v, err
	}
}

// evictCompleted discards one completed entry from s, whose lock the
// caller holds. Which one does not matter: every value is a deterministic
// function of its key, so eviction costs only a refill. In-flight entries
// stay — their waiters hold them.
func (c *Cache[K, V]) evictCompleted(s *shard[K, V]) {
	for k, e := range s.m {
		if e.filled {
			delete(s.m, k)
			c.evictions.Add(1)
			return
		}
	}
}

// Hits returns how many lookups were served by another caller's fill.
func (c *Cache[K, V]) Hits() uint64 { return c.hits.Load() }

// Evictions returns how many completed entries were discarded to stay
// under the cap.
func (c *Cache[K, V]) Evictions() uint64 { return c.evictions.Load() }

// Len returns the number of entries held, in flight or completed.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

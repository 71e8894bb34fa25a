package simfarm

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of one cache's traffic counters.
type Stats struct {
	// Hits counts lookups answered without computing: a cached value or
	// a join on another caller's in-flight compute. Misses counts
	// lookups that led a compute, so a run's split does not depend on
	// how its workers were scheduled.
	Hits, Misses, Evictions uint64
	// Computes counts value constructions that returned; it equals
	// Misses unless a compute panicked.
	Computes uint64
	Len      int
}

// lru is a capacity-bounded LRU map with per-key in-flight deduplication
// (singleflight). Keys are the inputs a layer computes from, compared in
// full; values are immutable artifacts (parsed files, compiled designs,
// simulation results, lint outcomes), so a hit hands back the shared
// value; eviction only drops the cache's own reference. One mutex guards
// both the entries and the in-flight table, so a key is cached, in flight
// or absent, never two at once.
//
// The traffic counters are atomics kept outside mu: snapshot never takes
// the map lock, so an observability poller (the edaserver /v1/stats
// handler) can hammer Stats() without contending with worker-pool cache
// probes. A snapshot is therefore not one consistent cut across
// counters, which is fine for monitoring and for the settled
// before/after deltas the CLI takes.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	m       map[K]*list.Element
	ll      *list.List // front = most recently used
	flights map[K]*flight[V]

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	computes  atomic.Uint64
	length    atomic.Int64
}

// flight is one in-progress computation that concurrent misses join.
type flight[V any] struct {
	done chan struct{}
	val  V
	ok   bool // val is valid; false when the leader panicked out of compute
}

// entry is one cached key/value pair.
type entry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		cap:     capacity,
		m:       make(map[K]*list.Element),
		ll:      list.New(),
		flights: make(map[K]*flight[V]),
	}
}

// getOrCompute is the cache's one probe: it returns the value cached for
// key, or joins the caller already computing it, or computes it. Under
// RunMany, duplicate candidates that land in the same scheduling window
// share one compute instead of each running it.
func (c *lru[K, V]) getOrCompute(key K, compute func() V) V {
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		c.hits.Add(1)
		return v
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if !f.ok {
			// The leader panicked out of compute and cached nothing;
			// retry rather than hand back a zero value.
			return c.getOrCompute(key, compute)
		}
		c.hits.Add(1)
		return f.val
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.misses.Add(1)

	// Unwind in a defer so a panicking compute still releases followers
	// blocked on f.done and clears the flight; the panic itself
	// propagates to this leader's caller and nothing is cached.
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.ok {
			c.m[key] = c.ll.PushFront(&entry[K, V]{key: key, val: f.val})
			for c.ll.Len() > c.cap {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				delete(c.m, oldest.Value.(*entry[K, V]).key)
				c.evictions.Add(1)
			}
			c.length.Store(int64(c.ll.Len()))
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val = compute()
	f.ok = true
	c.computes.Add(1)
	return f.val
}

// snapshot returns the current counters without taking the map lock; see
// the consistency note on lru.
func (c *lru[K, V]) snapshot() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Computes:  c.computes.Load(),
		Len:       int(c.length.Load()),
	}
}

// purge drops every entry but keeps the counters. A compute in flight
// still caches its value when it returns.
func (c *lru[K, V]) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[K]*list.Element)
	c.ll.Init()
	c.length.Store(0)
}

// Package cache provides a concurrency-safe memoization cache and the one
// singleflight the serving stack coalesces through: the experiment
// pipeline (internal/exp) memoizes with it, the service (internal/service)
// builds its exact and structural layers on it, and the gateway
// (internal/gateway) collapses concurrent dispatches with it.
//
// The cache is sharded by key hash so that concurrent workers contend on a
// per-shard mutex rather than one cache-wide lock. The first caller of a
// key runs its compute and concurrent callers wait for it instead of
// duplicating the (comparatively expensive) work; the compute's Fate
// decides who else sees the value. Hit, miss, coalesced and eviction
// counters are maintained for observability; a bounded-size mode caps the
// entry count with random replacement.
//
// Completed entries can be persisted and restored across process restarts
// via Save/Load (snapshot.go): a versioned, checksummed, deterministic
// binary format with caller-supplied key/value codecs, which is what lets
// vliwd warm-start its compile cache from disk.
package cache

import (
	"context"
	"sync"
	"sync/atomic"
)

// Options configure a Cache. The zero value is an unbounded cache.
type Options struct {
	// MaxEntries bounds the total entry count across all shards; 0 means
	// unbounded. Per-shard caps sum exactly to MaxEntries, and the shard
	// count shrinks from shards for small bounds (at least 8 entries per
	// shard) so a hot shard does not evict while the cache is far below
	// the bound.
	// When a shard is at its cap, an insertion evicts a random completed
	// entry from that shard (entries whose compute is still in flight are
	// never evicted, so the bound can be exceeded transiently by the
	// number of concurrent computes).
	MaxEntries int
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 `json:"hits"`      // lookups that found an entry
	Misses    int64 `json:"misses"`    // lookups that created the entry (and ran compute)
	Evictions int64 `json:"evictions"` // kept entries dropped by the size bound
	Entries   int64 `json:"entries"`   // current entry count
	// Coalesced counts the subset of Hits that found the compute in flight
	// and waited for it: concurrent demand for one key collapsed into one
	// compute. (It refines Hits rather than splitting it, so hits+misses is
	// the call count, plus one per waiting caller a Retry sent back.)
	Coalesced int64 `json:"coalesced"`
}

// Cache memoizes values of type V under comparable keys of type K. The
// caller supplies the hash function used for sharding; it only affects
// shard balance, never correctness — equality is the language's == on K.
type Cache[K comparable, V any] struct {
	hash   func(K) uint64
	shards []shard[K, V]
	mask   uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	entries   atomic.Int64
	coalesced atomic.Int64
}

type shard[K comparable, V any] struct {
	mu  sync.Mutex
	m   map[K]*entry[V]
	max int // entry cap; 0 = unbounded
}

// An entry's fate and done are guarded by the shard mutex; val and fate
// are final once done is closed.
type entry[V any] struct {
	val  V
	fate Fate          // inFlight until the compute's fate is applied
	done chan struct{} // made by the first waiting caller, closed with the fate
}

// Fate is a compute's verdict on the value it returns, applied under the
// shard lock before any waiting caller is released.
type Fate uint8

const (
	// Keep memoizes the value for every later caller of the key.
	Keep Fate = iota
	// Share hands the value to the callers already waiting and memoizes
	// nothing: the next caller computes afresh.
	Share
	// Retry leaves the value to the computing caller alone (it belongs to
	// that caller's clock, say its deadline): each waiting caller leads or
	// joins a fresh compute instead.
	Retry
	// inFlight marks an entry whose compute has not returned; the map
	// holds only inFlight and Keep entries.
	inFlight
)

// shards is the number of independently locked shards of an unbounded
// cache, a power of two so shard selection is a mask.
const shards = 16

// New returns an empty cache. hash maps a key to its shard and must be
// safe for concurrent use (pure functions are).
func New[K comparable, V any](opts Options, hash func(K) uint64) *Cache[K, V] {
	p := shards
	// A bounded cache splits the bound across shards, so fold shards until
	// each holds a useful slice (>= 8 entries where the bound allows it):
	// many tiny shards would evict hot entries while the cache as a whole
	// sits far below MaxEntries.
	if opts.MaxEntries > 0 {
		for p > 1 && opts.MaxEntries/p < 8 {
			p >>= 1
		}
	}
	c := &Cache[K, V]{
		hash:   hash,
		shards: make([]shard[K, V], p),
		mask:   uint64(p - 1),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[K]*entry[V])
	}
	if opts.MaxEntries > 0 {
		// Per-shard caps sum exactly to MaxEntries: the first rem shards
		// take the remainder.
		base, rem := opts.MaxEntries/p, opts.MaxEntries%p
		for i := range c.shards {
			c.shards[i].max = base
			if i < rem {
				c.shards[i].max++
			}
		}
	}
	return c
}

// Do returns the memoized value for key k, running compute once per key on
// first use; concurrent callers of the key wait for that compute, and every
// value is kept. compute must not call back into the same cache key (it
// would wait for itself).
func (c *Cache[K, V]) Do(k K, compute func() V) V {
	v, _, _ := c.DoWithInfo(context.Background(), k, func() (V, Fate) { return compute(), Keep })
	return v
}

// Info reports how a DoWithInfo call was served.
type Info struct {
	// Created is true when this call created the entry and ran compute —
	// the cache-miss case.
	Created bool
	// Joined is true when this call waited on a compute another caller
	// ran: the singleflight-coalescing case. Created and Joined are
	// mutually exclusive and describe the lookup that answered the call; a
	// plain hit on a kept entry reports neither.
	Joined bool
}

// DoWithInfo returns the value for key k, computing it unless a kept one
// exists. The caller that creates the entry runs compute and always gets
// its value; the Fate returned with it decides who else does, and is
// applied before any waiting caller is released, so no caller arriving
// later sees a value that was not kept. A waiting caller whose ctx ends
// returns ctx.Err() and a zero value while the compute runs on; the
// computing caller is not interrupted (compute should observe its own
// context). A kept entry is returned whatever ctx says. A compute that
// panics counts as Retry and leaves no entry; the panic propagates to its
// caller. Info says whether this call ran the compute or waited on
// another's. compute must not call back into the same cache key.
func (c *Cache[K, V]) DoWithInfo(ctx context.Context, k K, compute func() (V, Fate)) (V, Info, error) {
	sh := &c.shards[c.hash(k)&c.mask]
	for {
		sh.mu.Lock()
		e := sh.m[k]
		if e == nil {
			e = &entry[V]{fate: inFlight}
			if sh.max > 0 && len(sh.m) >= sh.max {
				c.evictLocked(sh)
			}
			sh.m[k] = e
			c.entries.Add(1)
			c.misses.Add(1)
			sh.mu.Unlock()
			return c.lead(sh, k, e, compute), Info{Created: true}, nil
		}
		c.hits.Add(1)
		if e.fate == Keep {
			sh.mu.Unlock()
			return e.val, Info{}, nil
		}
		c.coalesced.Add(1)
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		sh.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			var zero V
			return zero, Info{Joined: true}, ctx.Err()
		}
		if e.fate != Retry {
			return e.val, Info{Joined: true}, nil
		}
	}
}

// lead runs compute for the entry e its caller created and applies the
// fate: a kept entry stays, any other leaves the map (not an eviction).
func (c *Cache[K, V]) lead(sh *shard[K, V], k K, e *entry[V], compute func() (V, Fate)) V {
	fate := Retry // what a panicking compute leaves behind
	defer func() {
		sh.mu.Lock()
		if e.fate = fate; fate != Keep {
			delete(sh.m, k)
			c.entries.Add(-1)
		}
		if e.done != nil {
			close(e.done)
		}
		sh.mu.Unlock()
	}()
	e.val, fate = compute()
	return e.val
}

// Get reports the memoized value for k, if a kept one exists. It never
// waits on an in-flight compute and does not touch the hit/miss counters.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	sh := &c.shards[c.hash(k)&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.m[k]; e != nil && e.fate == Keep {
		return e.val, true
	}
	var zero V
	return zero, false
}

// evictLocked drops one kept entry from sh (random replacement via map
// iteration order). Entries still computing are skipped: their leader owns
// the map slot until it applies the fate.
func (c *Cache[K, V]) evictLocked(sh *shard[K, V]) {
	for k, e := range sh.m {
		if e.fate == Keep {
			delete(sh.m, k)
			c.entries.Add(-1)
			c.evictions.Add(1)
			return
		}
	}
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries.Load(),
		Coalesced: c.coalesced.Load(),
	}
}

// StringHash is FNV-1a over the key bytes — the default hash for
// string-keyed caches.
func StringHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/quantilejoins/qjoin"
)

// PlanCache maps (dataset, generation, canonical query, workers) to a
// compiled qjoin.Plan — one engine, or one per shard when the dataset is
// sharded (PrepareSharded) — with
//
//   - one entry per plan: a plan depends only on the (query, database) pair,
//     so every ranking over the same query shares it, and the capacity
//     bounds plans,
//   - LRU eviction bounded by that capacity,
//   - singleflight deduplication: concurrent requests for the same missing
//     plan — under any rankings — wait for one Prepare instead of compiling
//     in parallel,
//   - migration: a delta moves every entry of the touched dataset to the
//     next generation via Prepared.Update instead of invalidating it,
//   - panic containment: a prepare that panics fails its flight with an
//     error (every waiter returns; the panic is counted) instead of taking
//     the process down.
//
// Rankings are not part of the key. The plan keys its λ-independent trim
// preparations and sketch summaries by ranking value (ranking.Key), so the
// ranking each request parses afresh finds them warm.
type PlanCache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recently used; values are *entry
	byKey    map[string]*list.Element
	inflight map[string]*flight

	// Counters (guarded by mu; read via Stats).
	hits, misses, coalesced int64
	prepares, evictions     int64
	migrations, drops       int64
	panics                  atomic.Int64 // prepares whose panic was recovered
}

// entry is one cached plan.
type entry struct {
	key     string
	dataset string
	gen     uint64
	query   string
	workers int
	plan    qjoin.Plan
}

// flight is one in-progress Prepare that latecomers wait on.
type flight struct {
	done chan struct{}
	plan qjoin.Plan
	err  error
}

// NewPlanCache returns a cache bounded to capacity plans (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		cap:      capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// key builds the cache key. The query string is the canonical wire form
// (FormatQuery), so spelling variants of one query collide.
func key(dataset string, gen uint64, query string, workers int) string {
	return fmt.Sprintf("%s\x00%d\x00%s\x00%d", dataset, gen, query, workers)
}

// Get returns the plan for the key, preparing it with prepare() on a miss.
// cached reports whether the plan was served without a compile in this call
// (a singleflight latecomer reports cached=false: it waited for the full
// compile).
//
// The compile runs in a cache-owned goroutine, NOT under the caller's
// context: every caller — the one that triggered it and every coalesced
// latecomer — waits on it under its own ctx and gets ctx.Err() on expiry,
// while the flight itself always runs to completion and lands in the cache
// for the next request. hold (optional) is invoked synchronously on the
// compile path and its return value when the flight finishes, letting the
// HTTP layer charge the detached compile to the caller's admission slot.
func (c *PlanCache) Get(ctx context.Context, dataset string, gen uint64, query string, workers int,
	hold func() func(), prepare func() (qjoin.Plan, error)) (plan qjoin.Plan, cached bool, err error) {
	k := key(dataset, gen, query, workers)
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		// Copy under the lock: Migrate rewrites entry fields in place.
		p := el.Value.(*entry).plan
		c.hits++
		c.mu.Unlock()
		return p, true, nil
	}
	f, ok := c.inflight[k]
	if ok {
		c.coalesced++
		c.mu.Unlock()
	} else {
		f = &flight{done: make(chan struct{})}
		c.inflight[k] = f
		c.misses++
		c.prepares++
		var release func()
		if hold != nil {
			release = hold()
		}
		c.mu.Unlock()
		go func() {
			if release != nil {
				defer release()
			}
			var p qjoin.Plan
			var err error
			func() {
				defer recoverPanic(&c.panics, &err)
				p, err = prepare()
			}()
			c.mu.Lock()
			delete(c.inflight, k)
			if err == nil {
				c.insertLocked(&entry{
					key: k, dataset: dataset, gen: gen, query: query,
					workers: workers, plan: p,
				})
			}
			c.mu.Unlock()
			f.plan, f.err = p, err
			close(f.done)
		}()
	}
	select {
	case <-f.done:
		return f.plan, false, f.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// insertLocked adds an entry at the LRU front and evicts beyond capacity.
func (c *PlanCache) insertLocked(e *entry) {
	if old, ok := c.byKey[e.key]; ok {
		// A racing Migrate filled the same key first; keep the newer entry.
		c.ll.Remove(old)
		delete(c.byKey, e.key)
	}
	c.byKey[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.removeLocked(back)
		c.evictions++
	}
}

func (c *PlanCache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.byKey, e.key)
}

// Migrate moves every entry of the dataset at oldGen to newGen by applying
// the delta through Prepared.Update. Entries of the dataset at any other
// generation are stale strays — an in-flight prepare that lost a race with
// an earlier delta — and are dropped. It returns the number of migrated
// plans.
//
// Migrate runs inside the registry's writer critical section, before the
// new snapshot becomes visible: a query that observes newGen always finds
// the migrated plans. The Prepared.Update calls themselves run outside the
// cache lock — lookups for other datasets (and old-generation hits of this
// one, which are still the current generation until the snapshot swaps)
// keep flowing while the plans derive.
func (c *PlanCache) Migrate(dataset string, oldGen, newGen uint64, delta *qjoin.Delta) int {
	// Phase 1 (locked): collect the dataset's live entries, drop strays.
	c.mu.Lock()
	var els []*list.Element
	var plans []qjoin.Plan
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry)
		if e.dataset == dataset {
			if e.gen == oldGen {
				els = append(els, el)
				plans = append(plans, e.plan)
			} else {
				c.removeLocked(el)
				c.drops++
			}
		}
		el = next
	}
	c.mu.Unlock()
	// Phase 2 (unlocked): derive each plan. Concurrent readers of the old
	// plans are safe (Update is copy-on-write), and same-dataset writers
	// are excluded by the registry's writer lock.
	updated := make([]qjoin.Plan, len(plans))
	for i, p := range plans {
		up, err := p.UpdatePlan(delta)
		if err != nil {
			// Cannot happen for a delta the registry already applied to the
			// raw database (the engine validates against the same multiset
			// state); drop defensively rather than serve a stale generation.
			continue
		}
		// Re-certify the carried sketch summaries off the request path, so
		// post-delta approximate queries stay O(entries) cache hits. A warm
		// failure is not fatal: the summaries rebuild lazily.
		_ = up.WarmSketches()
		updated[i] = up
	}
	// Phase 3 (locked): re-key the collected entries. An entry evicted or
	// dropped (DELETE /datasets) while unlocked is left alone.
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i, el := range els {
		e := el.Value.(*entry)
		if c.byKey[e.key] != el || e.plan != plans[i] || e.gen != oldGen {
			continue
		}
		if updated[i] == nil {
			c.removeLocked(el)
			c.drops++
			continue
		}
		delete(c.byKey, e.key)
		e.gen, e.plan = newGen, updated[i]
		e.key = key(e.dataset, e.gen, e.query, e.workers)
		c.byKey[e.key] = el
		c.migrations++
		n++
	}
	return n
}

// DropDataset removes every entry (and forgets nothing about in-flight
// prepares: their results are inserted stale and cleaned by the next
// Migrate or eviction). Used on bulk reload and dataset deletion. It
// returns the number of dropped entries.
func (c *PlanCache) DropDataset(dataset string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).dataset == dataset {
			c.removeLocked(el)
			c.drops++
			n++
		}
		el = next
	}
	return n
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time counter snapshot for /stats and /metrics.
type CacheStats struct {
	Size       int   `json:"size"`
	Capacity   int   `json:"capacity"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Coalesced  int64 `json:"coalesced"`
	Prepares   int64 `json:"prepares"`
	Evictions  int64 `json:"evictions"`
	Migrations int64 `json:"migrations"`
	Drops      int64 `json:"drops"`
	Panics     int64 `json:"panics"`
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size: c.ll.Len(), Capacity: c.cap,
		Hits: c.hits, Misses: c.misses, Coalesced: c.coalesced,
		Prepares: c.prepares, Evictions: c.evictions,
		Migrations: c.migrations, Drops: c.drops,
		Panics: c.panics.Load(),
	}
}

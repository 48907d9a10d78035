package server

import (
	"container/list"
	"net/http"
	"strconv"
	"sync"

	"indice/internal/obs"
)

// The result cache holds at most maxCacheEntries bodies and at most
// maxCacheBytes of them; a body over the byte budget is served but never
// stored.
const (
	maxCacheEntries = 256
	maxCacheBytes   = 64 << 20
)

// answer is one encoded response — an /api/query body, a dashboard page
// or a map — computed under one epoch. It is what the result cache
// stores, what a flight hands its waiters and what a hit writes: a hit is
// a header and one Write of body, nothing is encoded again.
type answer struct {
	epoch       uint64
	contentType string
	body        []byte
	// cachedAt is the offset of the literal in the body's `"cached":true`,
	// the form every request served from the cache or from another
	// request's flight receives. The request that computed the answer gets
	// the same bytes with `false` there. Negative for bodies without the
	// field (pages).
	cachedAt int
}

var falseLiteral = []byte("false")

// write sends the answer; computed marks the one request whose
// computation produced it.
func (a *answer) write(w http.ResponseWriter, computed bool) {
	h := w.Header()
	h.Set("Content-Type", a.contentType)
	if !computed || a.cachedAt < 0 {
		h.Set("Content-Length", strconv.Itoa(len(a.body)))
		w.Write(a.body)
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(a.body)+len("false")-len("true")))
	w.Write(a.body[:a.cachedAt])
	w.Write(falseLiteral)
	w.Write(a.body[a.cachedAt+len("true"):])
}

// cacheCounters are the lookup counters of one class of cached answer.
type cacheCounters struct{ hits, misses *obs.Counter }

// queryCache is the LRU result cache behind /api/query, the dashboards
// and the maps. Every entry belongs to the newest epoch the cache has
// seen: a refresh publishes a new epoch, the first lookup or store under
// it purges the previous generation, and a request still holding an older
// publication misses and is not stored — so an answer computed under one
// published state can never serve another.
type queryCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int
	ll         *list.List // front = most recently used
	entries    map[string]*list.Element
	epoch      uint64
	bytes      int
}

type cacheEntry struct {
	key string
	val *answer
}

func newQueryCache() *queryCache {
	return &queryCache{
		maxEntries: maxCacheEntries,
		maxBytes:   maxCacheBytes,
		ll:         list.New(),
		entries:    make(map[string]*list.Element, maxCacheEntries),
	}
}

// sync drops every entry of earlier epochs once a newer one is seen.
// Caller holds c.mu.
func (c *queryCache) sync(epoch uint64) {
	if epoch <= c.epoch {
		return
	}
	c.epoch = epoch
	c.ll.Init()
	c.entries = make(map[string]*list.Element, c.maxEntries)
	c.resize(-c.bytes)
}

// resize accounts a change of the resident body bytes. The gauge is
// process-wide like the hit counters, so it moves by the delta.
func (c *queryCache) resize(delta int) {
	c.bytes += delta
	mCacheBytes.Add(float64(delta))
}

// get returns the answer cached under key at the given epoch, if any.
func (c *queryCache) get(epoch uint64, key string, m cacheCounters) (*answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync(epoch)
	el, ok := c.entries[key]
	if !ok || epoch != c.epoch {
		m.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	m.hits.Inc()
	return el.Value.(*cacheEntry).val, true
}

// put stores an answer under its epoch, then evicts least recently used
// entries until the cache is back inside both budgets. Answers from
// epochs older than the newest seen are not stored (their published
// state is already superseded), nor is a body larger than the whole byte
// budget.
func (c *queryCache) put(key string, val *answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync(val.epoch)
	if val.epoch != c.epoch || len(val.body) > c.maxBytes {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.resize(len(val.body) - len(e.val.body))
		e.val = val
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
		c.resize(len(val.body))
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		last := c.ll.Back()
		e := c.ll.Remove(last).(*cacheEntry)
		delete(c.entries, e.key)
		c.resize(-len(e.val.body))
	}
}

// stats returns the /api/query hit/miss counters (read through the obs
// registry — the same series /metrics exports, so they aggregate
// process-wide across server instances) and the current per-instance
// entry count.
func (c *queryCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return mCacheHits.Value(), mCacheMisses.Value(), c.ll.Len()
}

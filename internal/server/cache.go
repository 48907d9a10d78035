package server

import (
	"container/list"
	"net/http"
	"strconv"
	"sync"

	"indice/internal/obs"
)

// The result cache: a newly computed answer enters probation, a FIFO of
// probationEntries; a hit there promotes it into the main LRU of
// maxCacheEntries. An answer asked once falls off probation, leaving its
// key as a ghost (the newest maxCacheEntries kept): a ghost's next answer
// goes straight into main, so a repeat too late for probation costs one
// miss (2Q, Johnson & Shasha 1994). Bodies total at most maxCacheBytes.
const (
	maxCacheEntries  = 256
	probationEntries = 16
	maxCacheBytes    = 64 << 20
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

// queryCache is the result cache behind /api/query, the dashboards and
// the maps. Every entry belongs to the newest epoch the cache has seen:
// a refresh publishes a new epoch, the first lookup or store under it
// purges the previous generation, and a request still holding an older
// publication misses and is not stored — so an answer computed under one
// published state can never serve another.
type queryCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int
	main       *list.List // front = most recently used
	probation  *list.List // front = most recently stored
	ghosts     *list.List // keys that fell off probation, front = newest
	entries    map[string]*list.Element
	epoch      uint64
	bytes      int
}

type cacheEntry struct {
	key string
	val *answer    // nil for a ghost
	in  *list.List // the segment the entry lives in
}

func newQueryCache() *queryCache {
	return &queryCache{
		maxEntries: maxCacheEntries,
		maxBytes:   maxCacheBytes,
		main:       list.New(),
		probation:  list.New(),
		ghosts:     list.New(),
		entries:    make(map[string]*list.Element),
	}
}

// sync drops every entry of earlier epochs once a newer one is seen.
// Caller holds c.mu.
func (c *queryCache) sync(epoch uint64) {
	if epoch <= c.epoch {
		return
	}
	c.epoch = epoch
	c.main.Init()
	c.probation.Init()
	c.ghosts.Init()
	c.entries = make(map[string]*list.Element)
	c.resize(-c.bytes)
}

// resize accounts a change of the resident body bytes. The gauge is
// process-wide like the hit counters, so it moves by the delta.
func (c *queryCache) resize(delta int) {
	c.bytes += delta
	mCacheBytes.Add(float64(delta))
}

// move puts an entry at the front of another segment; unlike a hit on
// main, it allocates. Caller holds c.mu.
func (c *queryCache) move(el *list.Element, to *list.List) {
	e := el.Value.(*cacheEntry)
	e.in.Remove(el)
	e.in = to
	c.entries[e.key] = to.PushFront(e)
}

// get returns the answer cached under key at the given epoch, if any. A
// probation hit is its key's second ask and promotes; a ghost misses.
func (c *queryCache) get(epoch uint64, key string, m cacheCounters) (*answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync(epoch)
	el, ok := c.entries[key]
	if !ok || epoch != c.epoch || el.Value.(*cacheEntry).val == nil {
		m.misses.Inc()
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.in == c.main {
		c.main.MoveToFront(el)
	} else {
		c.move(el, c.main)
		mCachePromoted.Inc()
		c.evict(nil)
	}
	m.hits.Inc()
	return e.val, true
}

// put stores an answer under its epoch — in probation if its key is new,
// in main if the key is a ghost — then evicts until the cache is back
// inside its budgets. Answers from epochs older than the newest seen are
// not stored (their published state is already superseded), nor is a
// body larger than the whole byte budget.
func (c *queryCache) put(key string, val *answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync(val.epoch)
	if val.epoch != c.epoch || len(val.body) > c.maxBytes {
		return
	}
	el, ok := c.entries[key]
	switch {
	case !ok:
		c.entries[key] = c.probation.PushFront(&cacheEntry{key: key, in: c.probation})
	case el.Value.(*cacheEntry).val == nil:
		c.move(el, c.main)
		mCachePromoted.Inc()
	default:
		e := el.Value.(*cacheEntry)
		e.in.MoveToFront(el)
		c.resize(-len(e.val.body))
	}
	el = c.entries[key]
	el.Value.(*cacheEntry).val = val
	c.resize(len(val.body))
	c.evict(el)
}

// evict drops entries until each segment and the ghosts are inside their
// entry bounds and both segments inside the byte budget, taking
// probation's oldest first and then main's least recently used, but
// never the answer just stored. Caller holds c.mu.
func (c *queryCache) evict(stored *list.Element) {
	for c.probation.Len() > probationEntries {
		c.retire(c.probation.Back())
	}
	for c.main.Len() > c.maxEntries {
		c.remove(c.main.Back())
	}
	for c.bytes > c.maxBytes {
		if b := c.probation.Back(); b != nil && b != stored {
			c.retire(b)
		} else {
			c.remove(c.main.Back())
		}
	}
	for c.ghosts.Len() > c.maxEntries {
		delete(c.entries, c.ghosts.Remove(c.ghosts.Back()).(*cacheEntry).key)
	}
}

// retire turns a probation entry into a ghost. Caller holds c.mu.
func (c *queryCache) retire(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.resize(-len(e.val.body))
	e.val = nil
	c.move(el, c.ghosts)
}

// remove drops a main entry. Caller holds c.mu.
func (c *queryCache) remove(el *list.Element) {
	c.main.Remove(el)
	e := el.Value.(*cacheEntry)
	delete(c.entries, e.key)
	c.resize(-len(e.val.body))
}

// stats returns the /api/query hit/miss counters (read through the obs
// registry — the same series /metrics exports, so they aggregate
// process-wide across server instances) and this instance's residency.
func (c *queryCache) stats() *cacheInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &cacheInfo{
		Hits:      mCacheHits.Value(),
		Misses:    mCacheMisses.Value(),
		Size:      c.main.Len() + c.probation.Len(),
		Bytes:     c.bytes,
		Main:      c.main.Len(),
		Probation: c.probation.Len(),
		Ghosts:    c.ghosts.Len(),
	}
}

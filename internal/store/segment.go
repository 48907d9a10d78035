package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"indice/internal/table"
)

// segment is one immutable chunk of a shard, read through its encoded
// form (dictionary / bit-packed columns): the planner and the
// aggregation kernels see nothing else. A sealed segment is shared by the
// store and every snapshot; a snapshot wraps each part of a shard's tail
// in a segment of its own, never persisted. Row content never changes,
// but residency does: once a checkpoint has persisted a sealed segment to
// disk (path != ""), the in-memory encoding may be evicted and lazily
// reloaded on demand, so the corpus can exceed RAM. A reader holding a
// loaded *table.Encoded keeps using it safely after an eviction (the
// encoding itself is immutable — eviction only drops the cache
// reference).
type segment struct {
	rows  int
	bytes int    // SizeBytes of a sealed encoding (0 for a tail part)
	path  string // on-disk file (relative to the data dir), "" while hot-only

	mu  sync.Mutex
	enc *table.Encoded // the encoding; nil while evicted

	// Per-spec frozen aggregate partials (see aggPartial). Guarded by its
	// own mutex so cache hits never contend with residency loads, and
	// deliberately not cleared by the eviction sweep: a partial is a few
	// hundred bytes standing in for the whole encoding.
	aggMu sync.Mutex
	agg   map[string]*table.AggPartial

	lastUse atomic.Int64 // loader clock at last access
}

// numRows returns the segment's row count without loading it.
func (sg *segment) numRows() int { return sg.rows }

// openEnc returns the segment's encoding, reading an evicted one back
// from disk. The budget sweep runs only after sg.mu is released — a
// sweep locks candidate segments, so triggering it while holding this
// segment's own mutex could self-deadlock.
func (sg *segment) openEnc(ld *segLoader) (*table.Encoded, error) {
	enc, loaded, err := sg.load(ld)
	if err != nil {
		return nil, err
	}
	if loaded {
		ld.requestSweep()
	}
	return enc, nil
}

// load does the locked part of openEnc, reporting whether it pulled the
// encoding in from disk (in which case the caller enforces the budget).
func (sg *segment) load(ld *segLoader) (*table.Encoded, bool, error) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if ld != nil {
		sg.lastUse.Store(ld.clock.Add(1))
	}
	if sg.enc != nil {
		return sg.enc, false, nil
	}
	if ld == nil || sg.path == "" {
		return nil, false, fmt.Errorf("store: segment evicted with no backing file")
	}
	f, err := ld.fs.Open(join(ld.dir, sg.path))
	if err != nil {
		return nil, false, fmt.Errorf("store: reloading segment %s: %w", sg.path, err)
	}
	enc, rerr := table.ReadEncoded(f)
	cerr := f.Close()
	if rerr != nil {
		return nil, false, fmt.Errorf("store: reloading segment %s: %w", sg.path, rerr)
	}
	if cerr != nil {
		return nil, false, fmt.Errorf("store: reloading segment %s: %w", sg.path, cerr)
	}
	if enc.NumRows() != sg.rows {
		return nil, false, fmt.Errorf("store: segment %s has %d rows on disk, expected %d", sg.path, enc.NumRows(), sg.rows)
	}
	sg.enc = enc
	ld.mem.addSealed(sg.bytes)
	ld.residentRows.Add(int64(sg.rows))
	ld.loads.Add(1)
	mSegLoads.Inc()
	mResidentRows.Set(float64(ld.residentRows.Load()))
	return enc, true, nil
}

// segLoader is the shared residency manager of a durable store: it reads
// evicted segments back from disk and keeps the total resident rows of
// evictable (persisted) segments under the configured budget with an
// LRU-ish sweep. Snapshots hold a reference so queries over old snapshots
// keep working while the store evicts and reloads underneath.
type segLoader struct {
	fs     FS
	dir    string
	budget int            // resident-row budget over evictable segments; 0 = unlimited
	mem    *residentBytes // the store's byte account, moved by loads and evictions

	clock        atomic.Int64
	residentRows atomic.Int64 // rows of persisted segments currently in memory
	loads        atomic.Uint64
	evictions    atomic.Uint64

	mu       sync.Mutex
	sweeping bool
	segs     []*segment // every persisted (evictable) segment, registration order
}

func newSegLoader(fs FS, dir string, budget int, mem *residentBytes) *segLoader {
	return &segLoader{fs: fs, dir: dir, budget: budget, mem: mem}
}

// register adds a freshly persisted segment to the evictable set. The
// segment is resident at registration (it was just written or indexed).
func (ld *segLoader) register(sg *segment) {
	sg.lastUse.Store(ld.clock.Add(1))
	ld.residentRows.Add(int64(sg.rows))
	mResidentRows.Set(float64(ld.residentRows.Load()))
	ld.mu.Lock()
	ld.segs = append(ld.segs, sg)
	ld.mu.Unlock()
}

// requestSweep evicts least-recently-used persisted segments until the
// resident rows fit the budget. No-op without a budget. Runs inline — the
// caller just loaded or registered a segment, so the marginal latency is
// bounded by the (small) evictable set.
func (ld *segLoader) requestSweep() {
	if ld.budget <= 0 || int(ld.residentRows.Load()) <= ld.budget {
		return
	}
	ld.mu.Lock()
	if ld.sweeping {
		ld.mu.Unlock()
		return
	}
	ld.sweeping = true
	cands := make([]*segment, len(ld.segs))
	copy(cands, ld.segs)
	ld.mu.Unlock()
	defer func() {
		ld.mu.Lock()
		ld.sweeping = false
		ld.mu.Unlock()
	}()

	sort.Slice(cands, func(i, j int) bool {
		return cands[i].lastUse.Load() < cands[j].lastUse.Load()
	})
	newest := ld.clock.Load()
	for _, sg := range cands {
		if int(ld.residentRows.Load()) <= ld.budget {
			return
		}
		// Keep the most recently touched segment resident: evicting the
		// block a scan is actively walking would thrash.
		if sg.lastUse.Load() == newest {
			continue
		}
		// TryLock: a held mutex means the segment is mid-load or mid-read on
		// another goroutine — skip it rather than block (and never deadlock
		// against a caller that triggered this sweep).
		if !sg.mu.TryLock() {
			continue
		}
		if sg.enc != nil {
			sg.enc = nil
			ld.mem.addSealed(-sg.bytes)
			ld.residentRows.Add(-int64(sg.rows))
			ld.evictions.Add(1)
			mSegEvictions.Inc()
			mResidentRows.Set(float64(ld.residentRows.Load()))
		}
		sg.mu.Unlock()
	}
}

// stats reports the loader counters for status endpoints.
func (ld *segLoader) stats() (residentRows int64, loads, evictions uint64) {
	return ld.residentRows.Load(), ld.loads.Load(), ld.evictions.Load()
}

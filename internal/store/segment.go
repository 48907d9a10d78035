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
// aggregation kernels see nothing else. Sealed segments hold only the
// encoding. A snapshot's view of a shard tail — bounded by SegmentRows,
// never persisted, sharing the tail's arrays — is its own segment: it
// keeps the view for copies and encodes it on first read, once per
// snapshot. Row content never changes, but residency does: once a
// checkpoint has persisted a sealed segment to disk (path != ""), the
// in-memory encoding may be evicted and lazily reloaded on demand, so
// the corpus can exceed RAM. Snapshots share sealed segment pointers
// with the store; a reader holding a loaded *table.Encoded keeps using
// it safely after an eviction (the encoding itself is immutable —
// eviction only drops the cache reference).
type segment struct {
	rows  int
	bytes int    // SizeBytes of a sealed encoding (0 for a tail view)
	path  string // on-disk file (relative to the data dir), "" while hot-only

	mu  sync.Mutex
	enc *table.Encoded // the encoding; nil while evicted, or until a tail view is first read
	tab *table.Table   // a snapshot's length-pinned view of a tail; nil when sealed

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

// open returns the segment's rows as a table for consumers that need raw
// columns (deltas): a tail view as it is — a copy never encodes a tail —
// and a sealed segment freshly decoded per call, read back from disk
// when evicted.
func (sg *segment) open(ld *segLoader) (*table.Table, error) {
	if sg.tab != nil {
		return sg.tab, nil
	}
	enc, err := sg.openEnc(ld)
	if err != nil {
		return nil, err
	}
	return enc.Decode(), nil
}

// appendTo appends the segment's rows to dst, by column name: a tail
// view's columns as they are, a sealed encoding decoded straight onto
// dst.
func (sg *segment) appendTo(ld *segLoader, dst *table.Table) error {
	if sg.tab != nil {
		return dst.AppendTable(sg.tab)
	}
	enc, err := sg.openEnc(ld)
	if err != nil {
		return err
	}
	return enc.AppendTo(dst)
}

// openEnc returns the segment's encoding, reading an evicted one back
// from disk and encoding a tail view on its first read. The budget sweep
// runs only after sg.mu is released — a sweep locks candidate segments,
// so triggering it while holding this segment's own mutex could
// self-deadlock.
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
// Concurrent first readers of a tail view wait on sg.mu for the one
// encode, as they would for one reload.
func (sg *segment) load(ld *segLoader) (*table.Encoded, bool, error) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if ld != nil {
		sg.lastUse.Store(ld.clock.Add(1))
	}
	if sg.enc != nil {
		return sg.enc, false, nil
	}
	if sg.tab != nil {
		// A tail view belongs to this snapshot alone and is never
		// registered with the loader, so the encoding is neither counted
		// against the budget nor evicted: it dies with the snapshot.
		sg.enc = table.Encode(sg.tab)
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

// Package store implements the live EPC store: a sharded, columnar,
// append-only table that accepts streaming ingestion (single records,
// typed-CSV and encoded binary batches) while serving readers through
// epoch-based copy-on-write snapshots.
//
// Layout. Rows are hashed over a fixed set of shards by certificate
// identifier. A shard's rows are encoded (table.Encoded) from the moment
// they arrive: its tail is the list of parts its writes arrived as — an
// accepted batch's slice, a logged batch's slice at replay, a replicated
// frame — and when the tail reaches the segment bound its parts merge
// into one immutable sealed segment. Parts and segments never change, so
// snapshots share them with writers at zero copy cost. Every writer
// reaches a shard by one road (shard.add), which also folds the part into
// the shard's secondary indexes over configured categorical attributes
// (zones, energy class) and the valid count and range of every numeric
// column, read off the encoding.
//
// Consistency. Appends — single records and whole batches — run under a
// store-level read lock with per-shard mutexes, so writers on different
// shards proceed in parallel. Snapshot takes the store-level write lock
// and captures the segment and part lists, index headers and column
// ranges under a new epoch. A snapshot therefore always observes either
// all rows of a batch or none of them, and stays immutable while
// ingestion continues.
//
//	st, _ := store.New(store.DefaultConfig())
//	st.AppendTable(batch)
//	snap := st.Snapshot()        // frozen, consistent view
//	tab, _ := snap.Table()       // a fresh copy the analytics engine owns
package store

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"indice/internal/bitmap"
	"indice/internal/epc"
	"indice/internal/table"
)

// Config parameterizes a Store.
type Config struct {
	// Shards is the number of shards rows are hashed over (default 4).
	Shards int
	// SegmentRows caps a shard's tail; a tail reaching this size is
	// sealed into an immutable segment (default 2048, so that a 20k-row
	// corpus over four shards is served from sealed segments; shorter
	// segments would push mid-cardinality columns out of dictionaries,
	// which Encode keeps only up to rows/4 distinct values). Snapshots
	// read smaller tails as their parts; checkpoints seal them regardless
	// of size.
	// Recovery adopts segments of any size, so the bound may change
	// between restarts of a durable store.
	SegmentRows int
	// Schema fixes the column layout. Batches must match it exactly;
	// records are projected onto it. Default: the canonical EPC schema.
	Schema []table.Field
	// KeyAttr names the categorical column whose hash routes a row to its
	// shard (default certificate_id). Rows with a missing key, or schemas
	// without the column, fall back to round-robin placement.
	KeyAttr string
	// IndexAttrs are the categorical attributes indexed per shard
	// (default: district, neighbourhood, energy_class — the zone and
	// class lookups the dashboards aggregate on).
	IndexAttrs []string
	// Validate screens every ingested row against the EPC attribute
	// specs (ranges, admissible levels) and rejects violating rows.
	Validate bool
}

// DefaultConfig returns the production configuration over the canonical
// EPC schema.
func DefaultConfig() Config {
	return Config{
		Shards:      4,
		SegmentRows: 2048,
		Schema:      epc.TableSchema(),
		KeyAttr:     epc.AttrCertificateID,
		IndexAttrs:  []string{epc.AttrDistrict, epc.AttrNeighbourhood, epc.AttrEnergyClass},
	}
}

// shard holds one hash partition of the store: its sealed segments, then
// its tail's parts, in arrival order.
type shard struct {
	mu     sync.Mutex
	sealed []*segment
	// tail holds the encoded parts that arrived since the last seal, at
	// most maxTailParts of them, each as a segment of its own that every
	// snapshot taken while it is in the tail shares.
	tail      []*segment
	tailRows  int
	tailBytes int // what tail measured when mem was last moved for it
	rows      int
	mem       *residentBytes // the store's byte account
	// index maps attr -> value -> bitmap of shard-local row ordinals.
	// Rows only ever append, so ordinals arrive strictly ascending and the
	// bitmaps grow in place; Snapshot freezes copy-on-write views.
	index map[string]map[string]*bitmap.Bitmap
	// ranges holds, per schema column, the range of a numeric column over
	// all shard rows (zero for the other columns).
	ranges []colRange
}

// colRange is what shard pruning reads of a numeric column: how many
// valid values the shard holds and their exact extremes.
type colRange struct {
	n        int
	min, max float64
}

// add folds one valid value in; NaN carries no value.
func (r *colRange) add(v float64) {
	if v != v {
		return
	}
	if r.n == 0 || v < r.min {
		r.min = v
	}
	if r.n == 0 || v > r.max {
		r.max = v
	}
	r.n++
}

// Store is the live sharded EPC store.
type Store struct {
	cfg    Config
	schema []table.Field

	// mu orders appends against snapshots: appends hold the read side
	// (concurrent, serialized per shard by shard.mu), Snapshot holds the
	// write side so it never observes a half-applied batch.
	mu     sync.RWMutex
	shards []*shard
	mem    residentBytes

	epoch    atomic.Uint64
	rr       atomic.Uint64 // round-robin fallback counter
	accepted atomic.Uint64
	rejected atomic.Uint64

	// generation counts batches that actually landed rows: it bumps once
	// per append call with accepted rows and never otherwise, so an
	// unchanged generation means an unchanged store — the O(1) no-op test
	// refresh loops use instead of locking every shard to count rows.
	generation atomic.Uint64

	// history records the per-shard row counts of recent snapshot epochs
	// (newest last, bounded by maxSnapHistory) so a later snapshot can
	// compute the exact segment-level delta against any remembered epoch.
	// Guarded by mu's write side (only Snapshot touches it).
	history []epochRows

	keyCol int            // schema position of KeyAttr, -1 when absent
	colPos map[string]int // schema position by column name

	// recPool recycles the per-batch scratch of AppendRecords (the
	// projection table and its cell buffer), so a high-rate record ingest
	// endpoint allocates per batch only what the shards must keep.
	recPool sync.Pool

	// Durability layer (nil fields for a purely in-memory store). The WAL
	// writer serializes batch logging with shard application; the loader
	// manages cold-segment eviction and reload; ckptMu single-flights
	// checkpoints.
	dur      Durability
	fs       FS
	wal      *walWriter
	ld       *segLoader
	ckptMu   sync.Mutex
	ckptBusy atomic.Bool
	segID    atomic.Uint64 // segment file id counter (persisted via manifest)

	checkpoints       atomic.Uint64
	lastCkptSeq       atomic.Uint64
	lastCkptUnix      atomic.Int64
	lastCkptTookNanos atomic.Int64
	lastCkptSegments  atomic.Uint64
	recovery          RecoveryInfo
}

// residentBytes is the store's running account (Encoded.SizeBytes) of the
// row bytes it owns: the shard tails' parts and the resident sealed
// encodings. It moves where the bytes move — append, merge, seal, segment
// load and eviction — so reading it never scans a row.
type residentBytes struct{ tail, sealed atomic.Int64 }

func (m *residentBytes) addTail(d int) {
	m.tail.Add(int64(d))
	mTailBytes.Add(float64(d))
}

func (m *residentBytes) addSealed(d int) {
	m.sealed.Add(int64(d))
	mSealedBytes.Add(float64(d))
}

// recScratch is the pooled per-batch scratch of the record ingest path.
type recScratch struct {
	batch *table.Table
	cells []table.Cell
}

// epochRows is one remembered snapshot baseline: the epoch and how many
// rows each shard held when it was taken.
type epochRows struct {
	epoch     uint64
	shardRows []int
}

// maxSnapHistory bounds the remembered snapshot baselines. Refresh loops
// take one snapshot per cycle, so a depth of 16 covers any realistic
// consumer lag; deltas against older epochs fall back to a full rebuild.
const maxSnapHistory = 16

// New builds an empty store. Zero-valued config fields take their
// defaults; index attributes must be categorical columns of the schema.
func New(cfg Config) (*Store, error) {
	def := DefaultConfig()
	if cfg.Shards == 0 {
		cfg.Shards = def.Shards
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("store: %d shards", cfg.Shards)
	}
	if cfg.SegmentRows <= 0 {
		cfg.SegmentRows = def.SegmentRows
	}
	if len(cfg.Schema) == 0 {
		cfg.Schema = def.Schema
	}
	if cfg.KeyAttr == "" {
		cfg.KeyAttr = def.KeyAttr
	}

	pos := make(map[string]int, len(cfg.Schema))
	for i, f := range cfg.Schema {
		if _, dup := pos[f.Name]; dup {
			return nil, fmt.Errorf("store: duplicate schema column %q", f.Name)
		}
		pos[f.Name] = i
	}

	if cfg.IndexAttrs == nil {
		for _, a := range def.IndexAttrs {
			if i, ok := pos[a]; ok && cfg.Schema[i].Type == table.String {
				cfg.IndexAttrs = append(cfg.IndexAttrs, a)
			}
		}
	} else {
		for _, a := range cfg.IndexAttrs {
			i, ok := pos[a]
			if !ok {
				return nil, fmt.Errorf("store: index attribute %q not in schema", a)
			}
			if cfg.Schema[i].Type != table.String {
				return nil, fmt.Errorf("store: index attribute %q is not categorical", a)
			}
		}
	}

	keyCol := -1
	if i, ok := pos[cfg.KeyAttr]; ok && cfg.Schema[i].Type == table.String {
		keyCol = i
	}

	s := &Store{cfg: cfg, schema: cfg.Schema, keyCol: keyCol, colPos: pos}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{
			mem:    &s.mem,
			index:  make(map[string]map[string]*bitmap.Bitmap, len(cfg.IndexAttrs)),
			ranges: make([]colRange, len(cfg.Schema)),
		}
		for _, a := range cfg.IndexAttrs {
			sh.index[a] = make(map[string]*bitmap.Bitmap)
		}
		s.shards[i] = sh
	}
	return s, nil
}

// SegmentRows returns the configured mutable-tail bound — the layout
// parameter replicas mirror alongside the shard count.
func (s *Store) SegmentRows() int { return s.cfg.SegmentRows }

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Epoch returns the snapshot epoch (number of snapshots taken so far).
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Generation returns the ingest generation: the number of append calls
// that landed at least one row. Reading it is one atomic load, so callers
// may poll it cheaply to detect whether anything changed since a
// remembered generation (e.g. to skip a no-op refresh).
func (s *Store) Generation() uint64 { return s.generation.Load() }

// Schema returns the store's column layout (shared slice; do not modify).
func (s *Store) Schema() []table.Field { return s.schema }

// Rows returns the current total row count across shards.
func (s *Store) Rows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.rows
		sh.mu.Unlock()
	}
	return n
}

// shardFor routes one row of a batch to a shard: FNV-1a over the key
// attribute, round robin when the key is absent or empty.
func (s *Store) shardFor(key string, valid bool) int {
	if len(s.shards) == 1 {
		return 0
	}
	if s.keyCol < 0 || !valid || key == "" {
		return int(s.rr.Add(1) % uint64(len(s.shards)))
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// IngestResult reports the outcome of one append call.
type IngestResult struct {
	// Accepted and Rejected count rows; rejected rows failed per-record
	// validation and were dropped before reaching any shard.
	Accepted, Rejected int
	// Issues holds a bounded sample of rejection reasons.
	Issues []string
}

const maxReportedIssues = 10

// AppendTable ingests a batch. The batch schema must match the store's
// exactly; with Validate set, violating rows are dropped and counted in
// the result. The batch becomes visible to snapshots atomically: a
// snapshot sees either none or all of its accepted rows.
func (s *Store) AppendTable(t *table.Table) (IngestResult, error) {
	var res IngestResult
	if t == nil || t.NumRows() == 0 {
		return res, nil
	}
	start := time.Now()
	defer func() { mIngestSeconds.ObserveDuration(time.Since(start)) }()
	if !t.SchemaMatches(s.schema) {
		// Typed CSV and binary batches are self-describing, so a batch
		// carrying the right columns in a different order is fine:
		// project it onto the store's column order by name.
		var err error
		if t, err = s.conform(t); err != nil {
			return res, err
		}
	}

	if s.cfg.Validate {
		t, res = s.screen(t)
		if t.NumRows() == 0 {
			s.rejected.Add(uint64(res.Rejected))
			mIngestBatches.Inc()
			mIngestRejected.Add(uint64(res.Rejected))
			return res, nil
		}
	}

	t = s.finite(t)
	var keyCodes []uint32
	var keyDict []string
	var keyValid []bool
	if s.keyCol >= 0 {
		keyCodes, keyDict, _ = t.StringCodes(s.cfg.KeyAttr)
		keyValid, _ = t.ValidMask(s.cfg.KeyAttr)
	}

	s.mu.RLock()
	defer s.mu.RUnlock()

	// Route the batch to its shards up front and encode each shard's part
	// once: the routed parts are both what the shards keep and what the
	// WAL logs (replay then reproduces the exact per-shard row order
	// without re-running the routing).
	var routed []AdoptPart
	if len(s.shards) == 1 {
		routed = append(routed, AdoptPart{Shard: 0, Enc: table.Encode(t)})
	} else {
		parts, err := t.Partition(len(s.shards), func(row int) int {
			if keyCodes == nil {
				return s.shardFor("", false)
			}
			return s.shardFor(keyDict[keyCodes[row]], keyValid[row])
		})
		if err != nil {
			return res, err
		}
		for i, part := range parts {
			if part.NumRows() > 0 {
				routed = append(routed, AdoptPart{Shard: i, Enc: table.Encode(part)})
			}
		}
	}
	apply := func() error {
		for _, p := range routed {
			s.shards[p.Shard].add(p.Enc, "", &s.cfg)
		}
		return nil
	}
	if s.wal != nil {
		// Durable path: the batch hits the log (fsync-gated per policy)
		// before any row becomes visible; a failed log write acks nothing
		// and applies nothing.
		if _, err := s.wal.append(routed, apply); err != nil {
			return res, err
		}
	} else if err := apply(); err != nil {
		return res, err
	}
	res.Accepted = t.NumRows()
	s.accepted.Add(uint64(res.Accepted))
	s.rejected.Add(uint64(res.Rejected))
	mIngestBatches.Inc()
	mIngestAccepted.Add(uint64(res.Accepted))
	mIngestRejected.Add(uint64(res.Rejected))
	if res.Accepted > 0 {
		s.generation.Add(1)
	}
	s.maybeAutoCheckpoint()
	return res, nil
}

// maybeAutoCheckpoint starts a background checkpoint when the WAL has
// outgrown the configured bound. Single-flight; errors surface via the
// next explicit Checkpoint call or the durability status.
func (s *Store) maybeAutoCheckpoint() {
	if s.wal == nil || s.dur.MaxWALBytes < 0 {
		return
	}
	limit := s.dur.MaxWALBytes
	if limit == 0 {
		limit = defaultMaxWALBytes
	}
	if _, bytes := s.wal.lastSeqBytes(); bytes < limit {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.ckptBusy.Store(false)
		_, _ = s.Checkpoint()
	}()
}

// finite returns t with every non-finite float cell stored as a missing
// one, as every aggregate reads it and as the analysis needs it, copying
// t only when it holds one.
func (s *Store) finite(t *table.Table) *table.Table {
	out := t
	for _, f := range s.schema {
		vals, err := t.Floats(f.Name)
		if err != nil {
			continue // a string column
		}
		valid, _ := t.ValidMask(f.Name)
		for r, v := range vals {
			if valid[r] && (math.IsNaN(v) || math.IsInf(v, 0)) {
				if out == t {
					out = t.Clone()
				}
				_ = out.SetInvalid(f.Name, r) // the column and row exist
			}
		}
	}
	return out
}

// conform projects a batch whose columns match the store schema by name
// and type — but not order — onto the schema order. Batches missing a
// column, carrying extras, or with a type mismatch are rejected with the
// first offending column named.
func (s *Store) conform(t *table.Table) (*table.Table, error) {
	if t.NumCols() != len(s.schema) {
		return nil, fmt.Errorf("store: batch has %d columns, schema has %d", t.NumCols(), len(s.schema))
	}
	names := make([]string, len(s.schema))
	for i, f := range s.schema {
		typ, err := t.TypeOf(f.Name)
		if err != nil {
			return nil, fmt.Errorf("store: batch lacks schema column %q", f.Name)
		}
		if typ != f.Type {
			return nil, fmt.Errorf("store: batch column %q is %v, schema wants %v", f.Name, typ, f.Type)
		}
		names[i] = f.Name
	}
	return t.Select(names...)
}

// screen drops rows violating the EPC attribute specs, returning the kept
// subset and the rejection tally.
func (s *Store) screen(t *table.Table) (*table.Table, IngestResult) {
	var res IngestResult
	v := epc.NewRowValidator(t)
	keep := make([]bool, t.NumRows())
	kept := 0
	for r := range keep {
		issues := v.Validate(r)
		if len(issues) == 0 {
			keep[r] = true
			kept++
			continue
		}
		res.Rejected++
		if len(res.Issues) < maxReportedIssues {
			res.Issues = append(res.Issues, fmt.Sprintf("row %d: %v", r, issues[0]))
		}
	}
	if kept == t.NumRows() {
		return t, res
	}
	sub, err := t.FilterMask(keep)
	if err != nil {
		// FilterMask only fails on length mismatch, impossible here.
		panic(fmt.Sprintf("store: screen: %v", err))
	}
	return sub, res
}

// maxTailParts caps a shard's tail: a part past it folds the whole tail
// into one, so that a tail fed small batches is read through a few
// encodings, not one per batch (docs/benchmarks.md § E34 sizes it).
const maxTailParts = 8

// add is the one road rows take into a shard, whoever writes them: an
// accepted batch's part, a logged part at WAL replay, a replicated frame,
// checkpoint at recovery. It folds the part's rows into the
// index postings and column ranges straight from the encoding, then
// appends it to the tail, which seals once it holds SegmentRows rows and
// folds into one part past maxTailParts. A part read back from a
// checkpoint file (path != "") is a sealed segment already: it lands as
// one and is returned. The part must carry the store's schema. Caller
// holds the store lock.
func (sh *shard) add(part *table.Encoded, path string, cfg *Config) *segment {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	base, n := sh.rows, part.NumRows()
	for _, attr := range cfg.IndexAttrs {
		c, byVal := part.Column(attr), sh.index[attr]
		for i := 0; i < n; i++ {
			if v := c.StringAt(i); v != "" && c.ValidAt(i) {
				b := byVal[v]
				if b == nil {
					b = bitmap.New()
					byVal[v] = b
				}
				b.Add(uint32(base + i))
			}
		}
	}
	for j, c := range part.Columns() {
		if c.Type() != table.Float64 {
			continue
		}
		r := &sh.ranges[j]
		for i := 0; i < n; i++ {
			if c.ValidAt(i) {
				r.add(c.FloatAt(i))
			}
		}
	}
	sh.rows += n
	mStoreRows.Add(float64(n))
	if path != "" {
		sg := &segment{rows: n, enc: part, path: path, bytes: part.SizeBytes()}
		sh.sealed = append(sh.sealed, sg)
		sh.mem.addSealed(sg.bytes)
		return sg
	}
	sh.setTail(append(sh.tail, &segment{rows: n, enc: part}))
	switch {
	case sh.tailRows >= cfg.SegmentRows:
		sh.seal()
	case len(sh.tail) > maxTailParts:
		enc := merge(sh.tailParts(), 0)
		sh.setTail([]*segment{{rows: enc.NumRows(), enc: enc}})
	}
	return nil
}

// seal merges the tail's parts into one immutable sealed segment and
// empties the tail. Caller holds sh.mu.
func (sh *shard) seal() {
	if len(sh.tail) == 0 {
		return
	}
	enc := merge(sh.tailParts(), 0)
	sg := &segment{rows: enc.NumRows(), enc: enc, bytes: enc.SizeBytes()}
	sh.sealed = append(sh.sealed, sg)
	sh.mem.addSealed(sg.bytes)
	sh.setTail(nil)
}

// setTail makes parts the shard's tail and moves the byte account by what
// they measure. Caller holds sh.mu.
func (sh *shard) setTail(parts []*segment) {
	rows, bytes := 0, 0
	for _, p := range parts {
		rows += p.rows
		bytes += p.enc.SizeBytes()
	}
	sh.mem.addTail(bytes - sh.tailBytes)
	sh.tail, sh.tailRows, sh.tailBytes = parts, rows, bytes
}

// tailParts returns the encodings of the tail's parts. Caller holds sh.mu.
func (sh *shard) tailParts() []*table.Encoded {
	encs := make([]*table.Encoded, len(sh.tail))
	for i, sg := range sh.tail {
		encs[i] = sg.enc
	}
	return encs
}

// merge encodes, once, the rows of parts[0] from row from on, then every
// row of the rest: how a tail seals, how a tail past maxTailParts folds,
// and how replication frames a run of new rows. Encode emits each
// dictionary's distinct values sorted, so the bytes are those of one
// Encode of the same rows, however they arrived in parts. One whole part
// is its own merge.
func merge(parts []*table.Encoded, from int) *table.Encoded {
	if len(parts) == 1 && from == 0 {
		return parts[0]
	}
	t, err := table.NewWithSchema(parts[0].Schema())
	if err == nil {
		err = appendRun(t, parts, from)
	}
	if err != nil {
		// An encoding's own schema is valid, and a shard's parts share it.
		panic(fmt.Sprintf("store: merge: %v", err))
	}
	return table.Encode(t)
}

// appendRun decodes the rows of encs[0] from row from on, then every row
// of the rest, onto the end of dst.
func appendRun(dst *table.Table, encs []*table.Encoded, from int) error {
	n := -from
	for _, enc := range encs {
		n += enc.NumRows()
	}
	dst.Grow(n)
	for _, enc := range encs {
		rows := make([]int, enc.NumRows()-from)
		for k := range rows {
			rows[k] = from + k
		}
		if err := enc.TakeAppend(dst, rows); err != nil {
			return err
		}
		from = 0
	}
	return nil
}

// Status summarizes the store for operational endpoints.
type Status struct {
	Shards      []ShardStatus `json:"shards"`
	Rows        int           `json:"rows"`
	Epoch       uint64        `json:"epoch"`
	Generation  uint64        `json:"generation"`
	Accepted    uint64        `json:"accepted"`
	Rejected    uint64        `json:"rejected"`
	Columns     int           `json:"columns"`
	IndexAttrs  []string      `json:"index_attrs"`
	SegmentRows int           `json:"segment_rows"`

	// TailBytes and SealedResidentBytes measure the row bytes the store
	// owns in its shard tails' encoded parts and in resident sealed
	// encodings.
	TailBytes           int64 `json:"tail_bytes"`
	SealedResidentBytes int64 `json:"sealed_resident_bytes"`
}

// ShardStatus summarizes one shard.
type ShardStatus struct {
	Rows     int `json:"rows"`
	Segments int `json:"segments"`
	TailRows int `json:"tail_rows"`
}

// CountBy returns the live per-value row counts of an indexed categorical
// attribute, merged across shards. The second return value is false for
// unindexed attributes.
func (s *Store) CountBy(attr string) (map[string]int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int)
	found := false
	for _, sh := range s.shards {
		sh.mu.Lock()
		if byVal, ok := sh.index[attr]; ok {
			found = true
			for v, b := range byVal {
				out[v] += b.Len()
			}
		}
		sh.mu.Unlock()
	}
	if !found {
		return nil, false
	}
	return out, true
}

// Status reports the store's current shape.
func (s *Store) Status() Status {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Status{
		Epoch:       s.epoch.Load(),
		Generation:  s.generation.Load(),
		Accepted:    s.accepted.Load(),
		Rejected:    s.rejected.Load(),
		Columns:     len(s.schema),
		IndexAttrs:  append([]string(nil), s.cfg.IndexAttrs...),
		SegmentRows: s.cfg.SegmentRows,

		TailBytes:           s.mem.tail.Load(),
		SealedResidentBytes: s.mem.sealed.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Shards = append(st.Shards, ShardStatus{
			Rows:     sh.rows,
			Segments: len(sh.sealed),
			TailRows: sh.tailRows,
		})
		st.Rows += sh.rows
		sh.mu.Unlock()
	}
	return st
}

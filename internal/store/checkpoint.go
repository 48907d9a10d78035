package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"time"

	"indice/internal/table"
)

// Checkpointing. A checkpoint makes the WAL finite: it seals every
// shard's tail, persists each not-yet-persisted sealed segment to
// segments/s<shard>-<id>.seg in the binary columnar format, commits a
// CRC-framed MANIFEST via write-temp + rename, and garbage-collects the
// WAL files the manifest now covers. Recovery loads the manifest's
// segments and replays only WAL records with seq > manifest wal_seq, so
// boot cost is checkpoint size + WAL-since-checkpoint, not history size.
//
// Crash safety: segment files are written and fsynced before the
// manifest names them; the manifest replaces its predecessor atomically
// (rename + directory fsync); WAL files are only removed after the
// manifest commit. A crash at any step leaves either the old manifest
// with the full WAL, or the new manifest with (possibly) stale WAL files
// whose records replay idempotently by seq.

const (
	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"
	segmentsDirName = "segments"
	manifestVersion = 1

	// defaultMaxWALBytes triggers an automatic checkpoint once the live
	// WAL file outgrows it.
	defaultMaxWALBytes int64 = 64 << 20

	// maxManifestBytes bounds the manifest frame a reader will allocate.
	maxManifestBytes = 64 << 20
)

// manifest is the durable root of a checkpoint, serialized as CRC-framed
// JSON (u32 len | u32 crc32 | payload).
type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	// SegmentRows is the tail bound the writer ran with, recorded for
	// operators only: recovery reads each segment's own row count and
	// adopts segments of any size, so a store may reopen under another
	// bound (TestReopenUnderSmallerSegmentRows).
	SegmentRows int             `json:"segment_rows"`
	Schema      []manifestField `json:"schema"`
	// WALSeq is the last WAL record included in this checkpoint; recovery
	// replays strictly newer records.
	WALSeq uint64 `json:"wal_seq"`
	// SegID is the segment-file id counter at checkpoint time.
	SegID uint64 `json:"seg_id"`
	// Generation/Accepted/Rejected restore the store counters.
	Generation uint64 `json:"generation"`
	Accepted   uint64 `json:"accepted"`
	Rejected   uint64 `json:"rejected"`
	// ShardSegs lists each shard's segment files in order.
	ShardSegs [][]manifestSeg `json:"shard_segments"`
}

type manifestField struct {
	Name string `json:"name"`
	Type int    `json:"type"`
}

type manifestSeg struct {
	File string `json:"file"`
	Rows int    `json:"rows"`
}

// writeCRCFrame writes a CRC frame (length, checksum, payload): a WAL
// record or the MANIFEST.
func writeCRCFrame(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readCRCFrame reads one CRC frame, enforcing the size bound.
func readCRCFrame(r io.Reader, maxLen int) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || int64(n) > int64(maxLen) {
		return nil, fmt.Errorf("store: implausible frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("store: frame checksum mismatch")
	}
	return payload, nil
}

// writeManifest commits a manifest atomically: temp file, fsync, rename,
// directory fsync.
func writeManifest(fsx FS, dir string, m *manifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: manifest encode: %w", err)
	}
	tmp := join(dir, manifestTmpName)
	f, err := fsx.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	if err := writeCRCFrame(f, payload); err != nil {
		f.Close()
		return fmt.Errorf("store: manifest write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: manifest sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: manifest close: %w", err)
	}
	if err := fsx.Rename(tmp, join(dir, manifestName)); err != nil {
		return fmt.Errorf("store: manifest rename: %w", err)
	}
	if err := fsx.SyncDir(dir); err != nil {
		return fmt.Errorf("store: manifest dir sync: %w", err)
	}
	return nil
}

// readManifest loads the current manifest; (nil, nil) when none exists
// yet (a fresh data directory).
func readManifest(fsx FS, dir string) (*manifest, error) {
	f, err := fsx.Open(join(dir, manifestName))
	if err != nil {
		if isNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: manifest open: %w", err)
	}
	payload, rerr := readCRCFrame(f, maxManifestBytes)
	cerr := f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("store: manifest read: %w", rerr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("store: manifest close: %w", cerr)
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("store: manifest decode: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d", m.Version)
	}
	return &m, nil
}

// manifestSchema converts the store schema for the manifest.
func manifestSchema(fields []table.Field) []manifestField {
	out := make([]manifestField, len(fields))
	for i, f := range fields {
		out[i] = manifestField{Name: f.Name, Type: int(f.Type)}
	}
	return out
}

// schemaMatchesManifest verifies the opened store's schema against the
// persisted one.
func schemaMatchesManifest(fields []table.Field, mf []manifestField) bool {
	if len(fields) != len(mf) {
		return false
	}
	for i, f := range fields {
		if mf[i].Name != f.Name || mf[i].Type != int(f.Type) {
			return false
		}
	}
	return true
}

// CheckpointResult reports one checkpoint.
type CheckpointResult struct {
	// WALSeq is the last WAL record the checkpoint covers.
	WALSeq uint64 `json:"wal_seq"`
	// NewSegments/NewSegmentRows count the segment files this checkpoint
	// wrote (previously persisted segments are reused as-is).
	NewSegments    int `json:"new_segments"`
	NewSegmentRows int `json:"new_segment_rows"`
	// WALFilesRemoved counts the log files garbage-collected.
	WALFilesRemoved int           `json:"wal_files_removed"`
	Took            time.Duration `json:"-"`
	TookSeconds     float64       `json:"took_seconds"`
}

// Checkpoint persists the store's current contents: it seals the shard
// tails, writes every unpersisted sealed segment to disk, commits the
// manifest and prunes the covered WAL files. Ingestion may continue
// concurrently — batches landing during the checkpoint stay in the WAL
// and replay on the next boot. Only durable stores (Open) support it.
func (s *Store) Checkpoint() (CheckpointResult, error) {
	var res CheckpointResult
	if s.wal == nil {
		return res, fmt.Errorf("store: checkpoint on a non-durable store")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	start := time.Now()
	ok := false
	defer func() {
		if !ok {
			mCheckpointErrors.Inc()
		}
	}()

	// Phase 1 — freeze: under the store write lock (no appends in
	// flight), seal every tail, capture the sealed-segment lists, read
	// the covered WAL position and rotate the log so newer records land
	// in a fresh file.
	s.mu.Lock()
	segs := make([][]*segment, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		sh.seal()
		segs[i] = append([]*segment(nil), sh.sealed...)
		sh.mu.Unlock()
	}
	lastSeq, _ := s.wal.lastSeqBytes()
	rotateErr := s.wal.rotate()
	gen := s.generation.Load()
	acc := s.accepted.Load()
	rej := s.rejected.Load()
	s.mu.Unlock()
	mCkptFreezeSeconds.ObserveDuration(time.Since(start))
	if rotateErr != nil {
		return res, rotateErr
	}

	// Phase 2 — persist: write every segment that has no file yet, fsync
	// each, then fsync the segments directory so the new names are
	// durable before the manifest references them.
	persistStart := time.Now()
	wroteAny := false
	for i, shardSegs := range segs {
		for _, sg := range shardSegs {
			sg.mu.Lock()
			if sg.path != "" {
				sg.mu.Unlock()
				continue
			}
			rel := join(segmentsDirName, fmt.Sprintf("s%d-%016x.seg", i, s.segID.Add(1)))
			err := s.writeSegmentFile(rel, sg.enc)
			if err != nil {
				sg.mu.Unlock()
				return res, err
			}
			sg.path = rel
			rows := sg.rows
			sg.mu.Unlock()
			s.ld.register(sg)
			res.NewSegments++
			res.NewSegmentRows += rows
			wroteAny = true
		}
	}
	if wroteAny {
		if err := s.fs.SyncDir(join(s.dur.Dir, segmentsDirName)); err != nil {
			return res, fmt.Errorf("store: checkpoint segments sync: %w", err)
		}
	}
	mCkptPersistSecs.ObserveDuration(time.Since(persistStart))
	commitStart := time.Now()

	// Phase 3 — commit: the manifest names every segment file and the
	// covered WAL position, replacing its predecessor atomically.
	m := &manifest{
		Version:     manifestVersion,
		Shards:      len(s.shards),
		SegmentRows: s.cfg.SegmentRows,
		Schema:      manifestSchema(s.schema),
		WALSeq:      lastSeq,
		SegID:       s.segID.Load(),
		Generation:  gen,
		Accepted:    acc,
		Rejected:    rej,
		ShardSegs:   make([][]manifestSeg, len(segs)),
	}
	for i, shardSegs := range segs {
		list := make([]manifestSeg, len(shardSegs))
		for j, sg := range shardSegs {
			sg.mu.Lock()
			list[j] = manifestSeg{File: sg.path, Rows: sg.rows}
			sg.mu.Unlock()
		}
		m.ShardSegs[i] = list
	}
	if err := writeManifest(s.fs, s.dur.Dir, m); err != nil {
		return res, err
	}
	mCkptCommitSecs.ObserveDuration(time.Since(commitStart))
	pruneStart := time.Now()

	// Phase 4 — prune: WAL files holding only records <= lastSeq are now
	// redundant. Files are named by their first seq and rotated exactly
	// at lastSeq, so the name test is sufficient.
	names, err := s.fs.ReadDir(s.dur.Dir)
	if err == nil {
		for _, name := range names {
			if first, ok := parseWALFileName(name); ok && first <= lastSeq {
				if s.fs.Remove(join(s.dur.Dir, name)) == nil {
					res.WALFilesRemoved++
				}
			}
		}
	}

	mCkptPruneSecs.ObserveDuration(time.Since(pruneStart))

	s.checkpoints.Add(1)
	s.lastCkptSeq.Store(lastSeq)
	s.lastCkptUnix.Store(time.Now().Unix())
	res.WALSeq = lastSeq
	res.Took = time.Since(start)
	res.TookSeconds = res.Took.Seconds()
	s.lastCkptTookNanos.Store(int64(res.Took))
	s.lastCkptSegments.Store(uint64(res.NewSegments))
	mCheckpoints.Inc()
	mWALGCFiles.Add(uint64(res.WALFilesRemoved))
	ok = true

	// Newly persisted segments are now evictable; enforce the budget.
	s.ld.requestSweep()
	return res, nil
}

// writeSegmentFile persists one encoded segment (binary format v2) and
// fsyncs it.
func (s *Store) writeSegmentFile(rel string, enc *table.Encoded) error {
	f, err := s.fs.Create(join(s.dur.Dir, rel))
	if err != nil {
		return fmt.Errorf("store: segment create: %w", err)
	}
	if err := enc.WriteBinary(f); err != nil {
		f.Close()
		return fmt.Errorf("store: segment write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: segment sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: segment close: %w", err)
	}
	return nil
}

// RecoveryInfo reports what Open reconstructed from disk.
type RecoveryInfo struct {
	// CheckpointRows counts rows loaded from manifest segments;
	// CheckpointSegments the segment files.
	CheckpointRows     int `json:"checkpoint_rows"`
	CheckpointSegments int `json:"checkpoint_segments"`
	// ReplayedBatches/ReplayedRows count WAL records applied on top.
	ReplayedBatches int `json:"replayed_batches"`
	ReplayedRows    int `json:"replayed_rows"`
	// TornTail reports a torn final record was discarded (a crash mid
	// append of an unacked batch — expected, not an error).
	TornTail bool          `json:"torn_tail"`
	Took     time.Duration `json:"-"`
	// TookSeconds is the recovery wall time.
	TookSeconds float64 `json:"took_seconds"`
}

// RecoveryInfo returns what Open rebuilt (zero value for New stores).
func (s *Store) RecoveryInfo() RecoveryInfo { return s.recovery }

// DurabilityStatus summarizes the persistence layer for operational
// endpoints.
type DurabilityStatus struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	Fsync   string `json:"fsync,omitempty"`
	// WALSeq is the last acked batch's log sequence; WALBytes the size of
	// the live log file.
	WALSeq   uint64 `json:"wal_seq,omitempty"`
	WALBytes int64  `json:"wal_bytes,omitempty"`
	// Checkpoints counts completed checkpoints; LastCheckpointSeq the WAL
	// position the latest one covers; the Took/NewSegments pair describes
	// the latest checkpoint's cost.
	Checkpoints               uint64  `json:"checkpoints,omitempty"`
	LastCheckpointSeq         uint64  `json:"last_checkpoint_seq,omitempty"`
	LastCheckpointAt          string  `json:"last_checkpoint_at,omitempty"`
	LastCheckpointTookSeconds float64 `json:"last_checkpoint_took_seconds,omitempty"`
	LastCheckpointNewSegments uint64  `json:"last_checkpoint_new_segments,omitempty"`
	// ResidentRows counts rows of persisted segments currently in memory;
	// SegmentLoads/Evictions the cold-reload and eviction traffic.
	ResidentRows int64  `json:"resident_rows,omitempty"`
	SegmentLoads uint64 `json:"segment_loads,omitempty"`
	Evictions    uint64 `json:"evictions,omitempty"`
	// Recovery reports what the last Open reconstructed.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// DurabilityStatus reports the persistence layer's shape; Enabled is
// false for in-memory stores.
func (s *Store) DurabilityStatus() DurabilityStatus {
	if s.wal == nil {
		return DurabilityStatus{}
	}
	seq, bytes := s.wal.lastSeqBytes()
	resident, loads, evictions := s.ld.stats()
	ds := DurabilityStatus{
		Enabled:           true,
		Dir:               s.dur.Dir,
		Fsync:             s.dur.Fsync.String(),
		WALSeq:            seq,
		WALBytes:          bytes,
		Checkpoints:       s.checkpoints.Load(),
		LastCheckpointSeq: s.lastCkptSeq.Load(),
		ResidentRows:      resident,
		SegmentLoads:      loads,
		Evictions:         evictions,
	}
	if at := s.lastCkptUnix.Load(); at > 0 {
		ds.LastCheckpointAt = time.Unix(at, 0).UTC().Format("2006-01-02T15:04:05Z")
		ds.LastCheckpointTookSeconds = time.Duration(s.lastCkptTookNanos.Load()).Seconds()
		ds.LastCheckpointNewSegments = s.lastCkptSegments.Load()
	}
	if s.recovery != (RecoveryInfo{}) {
		rec := s.recovery
		ds.Recovery = &rec
	}
	return ds
}

// Close flushes and releases the WAL. In-memory stores are a no-op.
// The store must not be used after Close.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	if s.dur.Fsync != FsyncOff {
		if err := s.wal.sync(); err != nil && !errors.Is(err, fs.ErrClosed) {
			s.wal.close()
			return err
		}
	}
	return s.wal.close()
}

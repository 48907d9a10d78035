package store

import (
	"fmt"
	"sort"
	"time"

	"indice/internal/table"
)

// Durability configures the persistence layer of a store opened with
// Open. The zero value of each field takes a sensible default; Dir is
// the only required field.
type Durability struct {
	// Dir is the data directory (created if absent). It holds the
	// MANIFEST, the wal-*.log files and the segments/ subdirectory.
	Dir string
	// Fsync selects the WAL flush policy (default FsyncAlways).
	Fsync FsyncMode
	// SyncInterval is the FsyncInterval flush period (default 100ms).
	SyncInterval time.Duration
	// FS substitutes the filesystem — the fault-injection harness plugs
	// in here. Default: the real filesystem.
	FS FS
	// MaxWALBytes triggers an automatic background checkpoint once the
	// live log file outgrows it. 0 means the 64 MiB default; negative
	// disables automatic checkpoints (explicit Checkpoint still works).
	MaxWALBytes int64
	// MaxResidentRows bounds the rows of checkpointed segments kept in
	// memory; colder segments are evicted and lazily reloaded on access,
	// so the corpus can exceed RAM. 0 keeps everything resident.
	MaxResidentRows int
}

// Open builds a durable store over a data directory, recovering any
// previous state: the last checkpoint's segments are adopted and the
// WAL records after it are replayed, reconstructing exactly the batches
// whose ingest calls were acked before the crash. A fresh directory
// yields an empty store. The returned store logs every subsequent acked
// batch to the WAL before making it visible.
func Open(cfg Config, dur Durability) (*Store, error) {
	if dur.Dir == "" {
		return nil, fmt.Errorf("store: open without a data directory")
	}
	if dur.FS == nil {
		dur.FS = OSFS{}
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	fsx := dur.FS
	if err := fsx.MkdirAll(dur.Dir); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if err := fsx.MkdirAll(join(dur.Dir, segmentsDirName)); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s.dur = dur
	s.fs = fsx
	s.ld = newSegLoader(fsx, dur.Dir, dur.MaxResidentRows, &s.mem)

	start := time.Now()
	m, err := readManifest(fsx, dur.Dir)
	if err != nil {
		return nil, err
	}
	var rec RecoveryInfo
	applied := uint64(0)
	if m != nil {
		if m.Shards != len(s.shards) {
			return nil, fmt.Errorf("store: data dir has %d shards, config wants %d", m.Shards, len(s.shards))
		}
		if !schemaMatchesManifest(s.schema, m.Schema) {
			return nil, fmt.Errorf("store: data dir schema does not match the configured schema")
		}
		if err := s.adoptCheckpoint(m, &rec); err != nil {
			return nil, err
		}
		applied = m.WALSeq
		s.segID.Store(m.SegID)
		s.generation.Store(m.Generation)
		s.accepted.Store(m.Accepted)
		s.rejected.Store(m.Rejected)
		s.lastCkptSeq.Store(m.WALSeq)
	}

	applied, err = s.replayWAL(applied, &rec)
	if err != nil {
		return nil, err
	}
	if m != nil || rec.ReplayedBatches > 0 || rec.TornTail {
		// A fresh directory reconstructs nothing and reports no recovery.
		rec.Took = time.Since(start)
		rec.TookSeconds = rec.Took.Seconds()
		s.recovery = rec
	}
	s.wal = newWALWriter(fsx, dur.Dir, dur.Fsync, dur.SyncInterval, applied)

	if m != nil {
		s.gcOrphanSegments(m)
	}
	s.ld.requestSweep()
	return s, nil
}

// adoptCheckpoint loads the manifest's segment files into the shards,
// rebuilding indexes and statistics by one scan per segment. Segments
// are registered with the loader (and become evictable) as they load, so
// recovery memory stays bounded by the residency budget, not the corpus.
func (s *Store) adoptCheckpoint(m *manifest, rec *RecoveryInfo) error {
	for i, list := range m.ShardSegs {
		if i >= len(s.shards) {
			return fmt.Errorf("store: manifest lists segments for shard %d of %d", i, len(s.shards))
		}
		sh := s.shards[i]
		for _, ms := range list {
			f, err := s.fs.Open(join(s.dur.Dir, ms.File))
			if err != nil {
				return fmt.Errorf("store: checkpoint segment %s: %w", ms.File, err)
			}
			enc, rerr := table.ReadEncoded(f)
			cerr := f.Close()
			if rerr != nil {
				return fmt.Errorf("store: checkpoint segment %s: %w", ms.File, rerr)
			}
			if cerr != nil {
				return fmt.Errorf("store: checkpoint segment %s: %w", ms.File, cerr)
			}
			if enc.NumRows() != ms.Rows {
				return fmt.Errorf("store: checkpoint segment %s has %d rows, manifest says %d", ms.File, enc.NumRows(), ms.Rows)
			}
			if !schemaEqual(enc.Schema(), s.schema) {
				return fmt.Errorf("store: checkpoint segment %s does not match the store schema", ms.File)
			}
			sg := sh.add(enc, ms.File, &s.cfg)
			s.ld.register(sg)
			s.ld.requestSweep()
			rec.CheckpointRows += ms.Rows
			rec.CheckpointSegments++
		}
	}
	return nil
}

// schemaEqual reports whether two column layouts match in names, types
// and order.
func schemaEqual(a, b []table.Field) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Type != b[i].Type {
			return false
		}
	}
	return true
}

// replayWAL applies every log record with seq > applied, in order. A
// torn tail (the partial frame of a crashed append — by construction an
// unacked batch) is truncated away so the file ends on a valid frame
// boundary; this matters when the writer will reuse the same file name
// (fully-torn first file) and so a later recovery never re-stops at the
// damage in front of newer acked records. Replay then continues into the
// next log file: after a torn-tail recovery the writer reassigns the
// torn record's seq, so a successor file starting at exactly applied+1
// holds acked records. Files are walked by first seq with a strict
// contiguity rule: a file whose first record would leave a gap is not
// replayed (it is residue of a stray file past real damage). A record
// that passes its CRC but does not decode is no torn tail: replay stops
// with an error naming the file and leaves the file as it is. Returns
// the last applied seq.
func (s *Store) replayWAL(applied uint64, rec *RecoveryInfo) (uint64, error) {
	names, err := s.fs.ReadDir(s.dur.Dir)
	if err != nil {
		return applied, fmt.Errorf("store: wal scan: %w", err)
	}
	type walFile struct {
		name  string
		first uint64
	}
	var files []walFile
	for _, name := range names {
		if first, ok := parseWALFileName(name); ok {
			files = append(files, walFile{name: name, first: first})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].first < files[j].first })

	stopped := false
	for _, wf := range files {
		if stopped {
			break
		}
		if wf.first > applied+1 {
			// Gap before this file: its records were never acked in an
			// unbroken sequence (residue of a previous torn-tail recovery or
			// stray file). Nothing past the gap is trustworthy.
			rec.TornTail = true
			break
		}
		f, err := s.fs.Open(join(s.dur.Dir, wf.name))
		if err != nil {
			return applied, fmt.Errorf("store: wal open %s: %w", wf.name, err)
		}
		_, validBytes, clean, serr := scanWAL(f, len(s.shards), func(r *walRecord) error {
			if stopped || r.seq <= applied {
				return nil
			}
			if r.seq != applied+1 {
				// Out-of-order record: stop here, keep what we have.
				stopped = true
				return nil
			}
			rows := 0
			for _, p := range r.parts {
				if !schemaEqual(p.Enc.Schema(), s.schema) {
					stopped = true
					return nil
				}
				rows += p.Enc.NumRows()
			}
			for _, p := range r.parts {
				s.shards[p.Shard].add(p.Enc, "", &s.cfg)
			}
			applied = r.seq
			rec.ReplayedBatches++
			rec.ReplayedRows += rows
			return nil
		})
		cerr := f.Close()
		if serr != nil {
			return applied, fmt.Errorf("store: wal %s: %w", wf.name, serr)
		}
		if cerr != nil {
			return applied, fmt.Errorf("store: wal close %s: %w", wf.name, cerr)
		}
		if !clean {
			rec.TornTail = true
			// Trim the torn frame before the writer is built: an acked record
			// must never be appended after damaged bytes, or the next replay
			// would stop short of it and drop it.
			if terr := s.fs.Truncate(join(s.dur.Dir, wf.name), validBytes); terr != nil {
				return applied, fmt.Errorf("store: wal truncate %s: %w", wf.name, terr)
			}
		}
	}
	if rec.ReplayedBatches > 0 {
		s.generation.Add(uint64(rec.ReplayedBatches))
		s.accepted.Add(uint64(rec.ReplayedRows))
	}
	return applied, nil
}

// gcOrphanSegments removes segment files the manifest does not name —
// residue of a crash between segment write and manifest commit. The
// manifest is authoritative, so orphans are garbage by construction.
func (s *Store) gcOrphanSegments(m *manifest) {
	live := make(map[string]bool)
	for _, list := range m.ShardSegs {
		for _, ms := range list {
			live[ms.File] = true
		}
	}
	names, err := s.fs.ReadDir(join(s.dur.Dir, segmentsDirName))
	if err != nil {
		return
	}
	for _, name := range names {
		if !live[join(segmentsDirName, name)] {
			_ = s.fs.Remove(join(s.dur.Dir, segmentsDirName, name))
		}
	}
}

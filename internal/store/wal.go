package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"
)

// Write-ahead log. Every acked ingest batch is appended to the log before
// its rows become visible to snapshots, so a crash at any point loses no
// batch whose append call returned success. The log is a sequence of
// CRC-framed records:
//
//	u32 payloadLen | u32 crc32(IEEE, payload) | payload
//
// payload:
//
//	u8 kind (2 = batch) | u64 seq | one part frame (frame.go) per shard part
//
// The record header is little endian. The payload carries the batch in its
// post-routing form — the accepted rows already partitioned to shards —
// so replay reproduces the exact per-shard row order of the original
// ingest without re-running the (non-deterministic for keyless rows)
// routing. seq increases by one per record across the log's whole life;
// log files are named wal-<firstSeq>.log and rotated at checkpoints.
//
// Recovery scans records until the first torn one (short frame, CRC
// mismatch, implausible length): everything before it is applied,
// everything from it on is the torn tail of an unacked batch and is
// discarded. A frame that was fsynced before its ingest call returned can
// never be the torn one. A record whose CRC holds was written whole, so
// one that does not decode — another kind (kind 1 carried v1 tables) or
// parts that are not encoded tables of this store — is no torn tail:
// recovery refuses the log by file, seq and kind and leaves it as it is,
// rather than truncate acked batches away.

const (
	walKindBatch = 2

	// maxWALPayload bounds the length a frame may claim, so a corrupt
	// header cannot trigger a multi-gigabyte allocation. Ingest bodies are
	// capped well below this.
	maxWALPayload = 256 << 20
)

// FsyncMode selects when the WAL is flushed to stable storage.
type FsyncMode int

const (
	// FsyncAlways syncs the log before every ingest ack — full
	// power-loss durability, one fsync per batch.
	FsyncAlways FsyncMode = iota
	// FsyncInterval syncs at most once per SyncInterval; a power loss may
	// drop the last interval's batches (a process crash loses nothing —
	// the data is in the page cache).
	FsyncInterval
	// FsyncOff never syncs explicitly; durability against power loss is
	// up to the OS writeback. Process crashes still lose nothing.
	FsyncOff
)

// ParseFsyncMode parses the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off", "never":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown fsync mode %q (want always, interval or off)", s)
}

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// walRecord is one decoded log record.
type walRecord struct {
	seq   uint64
	parts []AdoptPart
}

// walWriter appends records to the current log file. It serializes both
// the file write and the caller's shard application (the caller holds mu
// across append-then-apply), so per-shard row order always matches seq
// order — the property replay relies on.
type walWriter struct {
	fs  FS
	dir string

	mode     FsyncMode
	interval time.Duration

	stop     chan struct{} // stops the FsyncInterval flusher; nil otherwise
	stopOnce sync.Once

	mu       sync.Mutex
	f        File
	name     string
	seq      uint64 // last assigned seq
	bytes    int64  // bytes in the current file
	damaged  bool   // a failed write left damage that could not be cleared
	lastSync time.Time
	buf      bytes.Buffer // encode scratch, reused across appends
}

// walFileName names the log file whose first record is seq.
func walFileName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstSeq)
}

// parseWALFileName extracts the first seq from a log file name.
func parseWALFileName(name string) (uint64, bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "wal-%016x.log", &seq); err != nil || n != 1 {
		return 0, false
	}
	return seq, true
}

// newWALWriter positions a writer after lastSeq. The file for the next
// record is created lazily on first append. FsyncInterval writers run a
// background flusher so a burst of appends followed by quiet is still
// synced within one interval — the documented power-loss window.
func newWALWriter(fs FS, dir string, mode FsyncMode, interval time.Duration, lastSeq uint64) *walWriter {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	w := &walWriter{fs: fs, dir: dir, mode: mode, interval: interval, seq: lastSeq}
	if mode == FsyncInterval {
		w.stop = make(chan struct{})
		go w.flushLoop()
	}
	return w
}

// flushLoop is the FsyncInterval background flusher: it fsyncs the live
// log every interval until close, bounding the power-loss window even
// when no further append arrives to trigger the inline sync. Errors are
// dropped — the data is already acked under the interval contract, and a
// persistent failure surfaces on the next append or Close.
func (w *walWriter) flushLoop() {
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			_ = w.sync()
		}
	}
}

// append frames the parts as the next record, writes and (per policy)
// syncs it, then runs apply while still holding the writer lock — the
// record is on the log before any of its rows are visible, and shard
// application happens in seq order. On an encode or write error the
// record is not acked and apply does not run.
func (w *walWriter) append(parts []AdoptPart, apply func() error) (uint64, error) {
	start := time.Now()
	defer func() { mWALAppendSeconds.ObserveDuration(time.Since(start)) }()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.damaged {
		return 0, fmt.Errorf("store: wal: log damaged by an earlier failed write; reopen the store to recover")
	}
	seq := w.seq + 1
	w.buf.Reset()
	if err := encodeWALRecord(&w.buf, seq, parts); err != nil {
		return 0, err
	}
	payload := w.buf.Bytes()
	if w.f == nil {
		name := join(w.dir, walFileName(seq))
		f, err := w.fs.OpenAppend(name)
		if err != nil {
			return 0, fmt.Errorf("store: wal: %w", err)
		}
		w.f, w.name, w.bytes = f, name, 0
	}
	if err := writeCRCFrame(w.f, payload); err != nil {
		w.dropFile()
		return 0, fmt.Errorf("store: wal write: %w", err)
	}
	switch w.mode {
	case FsyncAlways:
		if err := w.timedSync(); err != nil {
			w.dropFile()
			return 0, fmt.Errorf("store: wal sync: %w", err)
		}
	case FsyncInterval:
		if now := time.Now(); now.Sub(w.lastSync) >= w.interval {
			if err := w.timedSync(); err != nil {
				w.dropFile()
				return 0, fmt.Errorf("store: wal sync: %w", err)
			}
			w.lastSync = now
		}
	}
	w.seq = seq
	w.bytes += int64(8 + len(payload))
	mWALRecords.Inc()
	mWALBytes.Set(float64(w.bytes))
	if err := apply(); err != nil {
		// The record is on the log but the in-memory apply failed — the
		// store is now behind its own log. Apply never fails for schema
		// reasons (verified upstream); surface loudly.
		return 0, fmt.Errorf("store: wal apply: %w", err)
	}
	return seq, nil
}

// dropFile abandons the current log file after a failed write or sync:
// it may end in a partial frame, and a later acked record appended
// behind that damage would be unreachable to replay (which stops at the
// first invalid frame). The partial frame is truncated away; if that
// fails on a file holding nothing else, the file is removed — because
// the failed record's seq is reassigned, the next append would recreate
// that exact name and land behind the damage. When neither works the
// writer refuses further appends rather than risk acking records replay
// cannot reach. Caller holds w.mu.
func (w *walWriter) dropFile() {
	if w.f == nil {
		return
	}
	w.f.Close()
	if err := w.fs.Truncate(w.name, w.bytes); err != nil && w.bytes == 0 {
		if w.fs.Remove(w.name) != nil {
			w.damaged = true
		}
	}
	w.f, w.name, w.bytes = nil, "", 0
}

// rotate closes the current file so the next record starts a fresh
// wal-<seq+1>.log. Called at checkpoints (with no concurrent appends in
// flight for the rotation to race, as checkpoint holds the store lock).
func (w *walWriter) rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if w.mode != FsyncOff {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			w.f = nil
			return fmt.Errorf("store: wal rotate: %w", err)
		}
	}
	err := w.f.Close()
	w.f, w.name, w.bytes = nil, "", 0
	mWALBytes.Set(0)
	if err != nil {
		return fmt.Errorf("store: wal rotate: %w", err)
	}
	return nil
}

// sync forces an fsync of the current file (called by flushLoop and by
// Close's final flush).
func (w *walWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.timedSync(); err != nil {
		return err
	}
	w.lastSync = time.Now()
	return nil
}

// timedSync fsyncs the current file, feeding the fsync latency histogram.
// Caller holds w.mu and has checked w.f != nil.
func (w *walWriter) timedSync() error {
	t := time.Now()
	err := w.f.Sync()
	mWALFsyncSeconds.ObserveDuration(time.Since(t))
	return err
}

// close stops the background flusher (if any) and releases the current
// file handle. Safe to call more than once.
func (w *walWriter) close() error {
	if w.stop != nil {
		w.stopOnce.Do(func() { close(w.stop) })
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// lastSeqBytes reports the writer position (last acked seq, bytes in the
// current file) for status endpoints.
func (w *walWriter) lastSeqBytes() (uint64, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq, w.bytes
}

// encodeWALRecord writes the record payload for (seq, parts) to buf: the
// kind, the seq and one part frame per routed part, as the shard keeps
// it. A part whose encoding exceeds the frame bound fails here, before
// anything is logged.
func encodeWALRecord(buf *bytes.Buffer, seq uint64, parts []AdoptPart) error {
	var hdr [9]byte
	hdr[0] = walKindBatch
	binary.LittleEndian.PutUint64(hdr[1:], seq)
	buf.Write(hdr[:])
	for _, p := range parts {
		if err := EncodeFrame(buf, p.Shard, p.Enc); err != nil {
			return fmt.Errorf("store: wal encode: %w", err)
		}
	}
	if buf.Len() > maxWALPayload {
		return fmt.Errorf("store: wal record of %d bytes exceeds the frame bound", buf.Len())
	}
	return nil
}

// decodeWALPayload parses one CRC-valid record payload into parts for a
// store of the given shard count. Its errors name the seq and the kind.
func decodeWALPayload(p []byte, shards int) (*walRecord, error) {
	if len(p) < 9 {
		return nil, fmt.Errorf("store: wal record of %d bytes (kind %d) carries no seq", len(p), p[0])
	}
	rec := &walRecord{seq: binary.LittleEndian.Uint64(p[1:9])}
	if p[0] != walKindBatch {
		return nil, fmt.Errorf("store: wal record seq %d has kind %d, want %d", rec.seq, p[0], walKindBatch)
	}
	parts, _, err := ReadFrames(bytes.NewReader(p[9:]), shards)
	if err != nil {
		return nil, fmt.Errorf("store: wal record seq %d (kind %d): %w", rec.seq, p[0], err)
	}
	rec.parts = parts
	return rec, nil
}

// scanWAL reads records from one log stream, calling fn for each valid
// record in order. Scanning stops cleanly at the first torn frame — a
// truncated header or payload, an implausible length or a CRC mismatch —
// which is the tail of a crashed append, not an error. A frame whose CRC
// holds but whose payload does not decode stops the scan with an error.
// The return values report the last valid seq seen (0 when none), the
// byte length of the valid frame prefix (recovery truncates a torn file
// back to this boundary), whether the stream ended exactly on a frame
// boundary, and any error from decoding, fn or the underlying reader's
// non-EOF failures.
func scanWAL(r io.Reader, shards int, fn func(rec *walRecord) error) (lastSeq uint64, validBytes int64, clean bool, err error) {
	var hdr [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// EOF here is the clean end; a partial header is a torn tail.
			return lastSeq, validBytes, err == io.EOF, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxWALPayload {
			return lastSeq, validBytes, false, nil
		}
		// Read the payload in bounded chunks so allocation tracks the bytes
		// actually supplied, not the (possibly corrupt) claimed length.
		payload = payload[:0]
		torn := false
		for remaining := int(n); remaining > 0; {
			m := remaining
			if m > 1<<16 {
				m = 1 << 16
			}
			start := len(payload)
			payload = append(payload, make([]byte, m)...)
			if _, err := io.ReadFull(r, payload[start:]); err != nil {
				torn = true
				break
			}
			remaining -= m
		}
		if torn {
			return lastSeq, validBytes, false, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			return lastSeq, validBytes, false, nil
		}
		rec, err := decodeWALPayload(payload, shards)
		if err != nil {
			// The CRC held, so the record was written whole: not a torn tail.
			return lastSeq, validBytes, false, err
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return lastSeq, validBytes, false, err
			}
		}
		lastSeq = rec.seq
		validBytes += int64(len(hdr) + len(payload))
	}
}

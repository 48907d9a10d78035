package scaleout

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"

	"indice/internal/store"
)

// LeaderInfo is GET /api/replicate/info: the layout a replica must
// mirror before its first sync.
type LeaderInfo struct {
	Shards      int `json:"shards"`
	SegmentRows int `json:"segment_rows"`
}

// Leader serves the replication endpoints off one shared snapshot. The
// snapshot is re-taken only when the store's ingest generation moves, so
// every replica polling the leader syncs to the same epoch sequence —
// the property that gives the coordinator a common epoch to pin queries
// to — and an idle leader answers polls without epoch churn or snapshot
// work. Encoded payloads are cached beside the snapshot: a fleet of
// replicas pulling the same delta encodes it once.
type Leader struct {
	st *store.Store

	mu   sync.Mutex
	snap *store.Snapshot

	// full is the cached whole-store stream for l.snap; deltas caches
	// recent per-baseline streams for it. Both reset when snap moves.
	full   []byte
	deltas map[uint64][]byte
}

// NewLeader wraps a store with the replication serving state.
func NewLeader(st *store.Store) *Leader {
	return &Leader{st: st, deltas: make(map[uint64][]byte)}
}

// snapshot returns the shared replication snapshot, refreshing it when
// ingest moved the store.
func (l *Leader) snapshot() *store.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snap == nil || l.snap.Generation() != l.st.Generation() {
		l.snap = l.st.Snapshot()
		l.full = nil
		l.deltas = make(map[uint64][]byte)
	}
	return l.snap
}

// Info returns the layout a replica bootstraps from. It is read off the
// store's configuration, so answering it takes no snapshot and moves no
// epoch.
func (l *Leader) Info() LeaderInfo {
	return LeaderInfo{Shards: l.st.NumShards(), SegmentRows: l.st.SegmentRows()}
}

func setStreamHeaders(w http.ResponseWriter, snap *store.Snapshot) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderEpoch, strconv.FormatUint(snap.Epoch(), 10))
	h.Set(HeaderShards, strconv.Itoa(snap.NumShards()))
}

// ServeSegments streams the whole store as encoded segment frames:
// a replica's first sync, or its rebuild after falling off the delta
// history.
func (l *Leader) ServeSegments(w http.ResponseWriter, r *http.Request) {
	snap := l.snapshot()
	l.mu.Lock()
	body := l.full
	l.mu.Unlock()
	if body == nil {
		var buf bytes.Buffer
		if err := snap.EncodeFrames(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		body = buf.Bytes()
		l.mu.Lock()
		if l.snap == snap {
			l.full = body
		}
		l.mu.Unlock()
	}
	mLeadSegments.Inc()
	mLeadBytes.Add(uint64(len(body)))
	setStreamHeaders(w, snap)
	w.Write(body)
}

// ServeDelta streams the rows added since the replica's epoch
// (?since=E) as encoded segment frames: 204 when the replica is already
// current, 410 Gone when the baseline aged out of the snapshot history
// and the replica must full-resync.
func (l *Leader) ServeDelta(w http.ResponseWriter, r *http.Request) {
	since, err := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	if err != nil {
		http.Error(w, "bad since parameter: "+err.Error(), http.StatusBadRequest)
		return
	}
	snap := l.snapshot()
	if since == snap.Epoch() {
		mLeadDelta.Inc()
		setStreamHeaders(w, snap)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	l.mu.Lock()
	body, hit := l.deltas[since]
	l.mu.Unlock()
	if !hit {
		d, ok := snap.DeltaSince(since)
		if !ok {
			mLeadGone.Inc()
			http.Error(w, "delta baseline no longer available; full resync required", http.StatusGone)
			return
		}
		var buf bytes.Buffer
		if err := d.EncodeFrames(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		body = buf.Bytes()
		l.mu.Lock()
		if l.snap == snap {
			l.deltas[since] = body
		}
		l.mu.Unlock()
	}
	mLeadDelta.Inc()
	mLeadBytes.Add(uint64(len(body)))
	setStreamHeaders(w, snap)
	w.Header().Set(HeaderFromEpoch, strconv.FormatUint(since, 10))
	w.Write(body)
}

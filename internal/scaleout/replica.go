package scaleout

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"indice/internal/store"
)

// ringSize bounds the per-epoch snapshots a replica retains for
// epoch-pinned partial queries. The coordinator pins to the max common
// epoch across replicas, which trails the newest applied epoch by at
// most the sync skew between replicas — a handful of epochs — so a
// short ring suffices and older snapshots are released for collection.
const ringSize = 8

// ReplicaStatus is GET /api/replicate/status: the replica's position,
// which is the coordinator's routing input. A replica that cannot reach
// its leader reports its last applied position plus LastError;
// LastSyncUnix dates its last successful leader contact.
type ReplicaStatus struct {
	LeaderURL string `json:"leader_url"`
	// AppliedEpoch is the newest leader epoch fully applied here;
	// MinEpoch the oldest epoch still pinned in the snapshot ring (both
	// 0 until the first sync).
	AppliedEpoch uint64 `json:"applied_epoch"`
	MinEpoch     uint64 `json:"min_epoch"`
	Shards       int    `json:"shards"`
	Rows         int    `json:"rows"`
	Syncs        uint64 `json:"syncs"`
	FullSyncs    uint64 `json:"full_syncs"`
	AppliedRows  uint64 `json:"applied_rows"`
	LastSyncUnix int64  `json:"last_sync_unix,omitempty"`
	LastError    string `json:"last_error,omitempty"`
}

// Replica pulls segment streams from a leader and applies them into a
// local in-memory store that mirrors the leader's shard layout. Applies
// are atomic (all frames decode and validate before any shard changes)
// and never decode segment content; after each applied epoch the replica
// pins a local snapshot in a small ring so epoch-pinned partial queries
// can be answered for recent leader epochs even after newer data lands.
type Replica struct {
	st        *store.Store
	leaderURL string
	client    *http.Client
	interval  time.Duration

	mu          sync.Mutex
	ring        []ringEntry // newest last: its epoch is the applied one
	syncs       uint64
	fullSyncs   uint64
	appliedRows uint64
	lastSync    time.Time
	lastErr     string
}

type ringEntry struct {
	epoch uint64 // leader epoch
	snap  *store.Snapshot
}

// NewReplica builds a replica pulling from leaderURL into st every
// interval. The store must be in-memory (replicas re-sync on boot
// instead of recovering locally) and share the leader's shard count.
func NewReplica(st *store.Store, leaderURL string, client *http.Client, interval time.Duration) *Replica {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &Replica{st: st, leaderURL: leaderURL, client: client, interval: interval}
}

// Run drives the pull loop until ctx is cancelled: sync, sleep the
// interval, repeat — with exponential backoff (capped at 10× the
// interval) while the leader is unreachable.
func (r *Replica) Run(ctx context.Context) {
	backoff := r.interval
	maxBackoff := 10 * r.interval
	for {
		sleep := r.interval
		if err := r.SyncOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			mReplSyncErrs.Inc()
			r.mu.Lock()
			r.lastErr = err.Error()
			r.mu.Unlock()
			sleep = backoff
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		} else {
			backoff = r.interval
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
	}
}

// SyncOnce performs one pull: a delta against the applied epoch when one
// exists, falling back to a full stream on first sync or when the
// leader no longer remembers the baseline (410).
func (r *Replica) SyncOnce(ctx context.Context) error {
	start := time.Now()
	defer func() { mReplSyncSecs.ObserveDuration(time.Since(start)) }()
	applied, _, synced := r.Head()
	if !synced {
		return r.fullSync(ctx)
	}

	resp, err := r.get(ctx, fmt.Sprintf("%s/api/replicate/delta?since=%d", r.leaderURL, applied))
	if err != nil {
		return err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusNoContent:
		mReplSyncNoop.Inc()
		r.note()
		return nil
	case http.StatusGone:
		if err := r.st.Reset(); err != nil {
			return err
		}
		return r.fullSync(ctx)
	case http.StatusOK:
		epoch, shards, err := streamHeaders(resp)
		if err != nil {
			return err
		}
		if from, err := strconv.ParseUint(resp.Header.Get(HeaderFromEpoch), 10, 64); err != nil || from != applied {
			return fmt.Errorf("scaleout: delta baseline %q, expected %d", resp.Header.Get(HeaderFromEpoch), applied)
		}
		if shards != r.st.NumShards() {
			return fmt.Errorf("scaleout: leader has %d shards, replica %d", shards, r.st.NumShards())
		}
		parts, rows, err := store.ReadFrames(resp.Body, shards)
		if err != nil {
			return err
		}
		if err := r.apply(parts, rows, epoch); err != nil {
			return err
		}
		mReplSyncDelta.Inc()
		return nil
	default:
		return fmt.Errorf("scaleout: delta fetch: %s", resp.Status)
	}
}

// fullSync rebuilds from a whole-store stream. The caller guarantees the
// local store is empty (fresh boot, or just Reset after a 410).
func (r *Replica) fullSync(ctx context.Context) error {
	resp, err := r.get(ctx, r.leaderURL+"/api/replicate/segments")
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scaleout: segment fetch: %s", resp.Status)
	}
	epoch, shards, err := streamHeaders(resp)
	if err != nil {
		return err
	}
	if shards != r.st.NumShards() {
		return fmt.Errorf("scaleout: leader has %d shards, replica %d", shards, r.st.NumShards())
	}
	parts, rows, err := store.ReadFrames(resp.Body, shards)
	if err != nil {
		return err
	}
	if err := r.apply(parts, rows, epoch); err != nil {
		return err
	}
	mReplSyncFull.Inc()
	r.mu.Lock()
	r.fullSyncs++
	r.mu.Unlock()
	return nil
}

// apply lands one stream atomically and pins the resulting snapshot in
// the ring under the leader epoch it corresponds to.
func (r *Replica) apply(parts []store.AdoptPart, rows int, epoch uint64) error {
	if len(parts) > 0 {
		if _, err := r.st.AdoptParts(parts); err != nil {
			return err
		}
	}
	snap := r.st.Snapshot()
	r.mu.Lock()
	r.ring = append(r.ring, ringEntry{epoch: epoch, snap: snap})
	if len(r.ring) > ringSize {
		r.ring = append(r.ring[:0:0], r.ring[len(r.ring)-ringSize:]...)
	}
	r.appliedRows += uint64(rows)
	r.mu.Unlock()
	mReplRows.Add(uint64(rows))
	r.note()
	return nil
}

// note records a successful leader contact.
func (r *Replica) note() {
	r.mu.Lock()
	r.syncs++
	r.lastSync = time.Now()
	r.lastErr = ""
	r.mu.Unlock()
}

// SnapshotAt returns the pinned snapshot for one leader epoch, or false
// when the epoch is not (or no longer) held.
func (r *Replica) SnapshotAt(epoch uint64) (*store.Snapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.ring) - 1; i >= 0; i-- {
		if r.ring[i].epoch == epoch {
			return r.ring[i].snap, true
		}
	}
	return nil, false
}

// Head returns the newest pinned snapshot and the leader epoch it holds,
// which is what a replica serves /api/query from; ok is false until the
// first sync has applied.
func (r *Replica) Head() (epoch uint64, snap *store.Snapshot, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) == 0 {
		return 0, nil, false
	}
	head := r.ring[len(r.ring)-1]
	return head.epoch, head.snap, true
}

// Store returns the in-memory store the replica applies into.
func (r *Replica) Store() *store.Store { return r.st }

// LeaderURL returns the base URL of the leader the replica pulls from.
func (r *Replica) LeaderURL() string { return r.leaderURL }

// Status reports the replica's position (see ReplicaStatus).
func (r *Replica) Status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ReplicaStatus{
		LeaderURL:   r.leaderURL,
		Shards:      r.st.NumShards(),
		Rows:        r.st.Rows(),
		Syncs:       r.syncs,
		FullSyncs:   r.fullSyncs,
		AppliedRows: r.appliedRows,
		LastError:   r.lastErr,
	}
	if n := len(r.ring); n > 0 {
		st.AppliedEpoch, st.MinEpoch = r.ring[n-1].epoch, r.ring[0].epoch
	}
	if !r.lastSync.IsZero() {
		st.LastSyncUnix = r.lastSync.Unix()
	}
	return st
}

func (r *Replica) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return r.client.Do(req)
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// streamHeaders parses the epoch bookkeeping of a replication response.
func streamHeaders(resp *http.Response) (epoch uint64, shards int, err error) {
	if epoch, err = strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("scaleout: bad %s header: %w", HeaderEpoch, err)
	}
	if shards, err = strconv.Atoi(resp.Header.Get(HeaderShards)); err != nil {
		return 0, 0, fmt.Errorf("scaleout: bad %s header: %w", HeaderShards, err)
	}
	return epoch, shards, nil
}

// FetchLeaderInfo asks a leader for the layout a replica must mirror.
func FetchLeaderInfo(ctx context.Context, client *http.Client, leaderURL string) (LeaderInfo, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leaderURL+"/api/replicate/info", nil)
	if err != nil {
		return LeaderInfo{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return LeaderInfo{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return LeaderInfo{}, fmt.Errorf("scaleout: leader info: %s", resp.Status)
	}
	var info LeaderInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&info); err != nil {
		return LeaderInfo{}, err
	}
	return info, nil
}

package scaleout

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// ErrNoCommonEpoch means no epoch is currently servable by any replica:
// none has completed a first sync, or every one is unreachable.
var ErrNoCommonEpoch = errors.New("scaleout: no common epoch across reachable replicas")

// ClientError wraps a replica's 400: the request itself is bad (unknown
// attribute, malformed predicate), so every replica would reject it and
// failing over is pointless. Legs fail fast on it and the coordinator's
// HTTP layer maps it back to a 400.
type ClientError struct{ Msg string }

func (e *ClientError) Error() string { return e.Msg }

// CoordinatorConfig parameterizes the scatter-gather coordinator. Zero
// values take the defaults noted per field.
type CoordinatorConfig struct {
	// Replicas are the base URLs fanned out over (http://host:port).
	Replicas []string
	// Timeout bounds each individual replica request (default 5s).
	Timeout time.Duration
	// HedgeAfter is how long a partition leg may run before a hedge
	// request is launched at the next replica (default 250ms).
	HedgeAfter time.Duration
	// PollInterval paces the background status poller (default 250ms).
	PollInterval time.Duration
}

// ReplicaView is one replica as the coordinator last saw it.
type ReplicaView struct {
	URL string `json:"url"`
	OK  bool   `json:"ok"`
	// AgeMillis is how stale the view is; Error the last poll failure.
	AgeMillis int64         `json:"age_millis"`
	Error     string        `json:"error,omitempty"`
	Status    ReplicaStatus `json:"status"`
}

// Coordinator fans queries out over replicas and merges the partial
// results. Every response is computed at one epoch — the newest epoch
// the largest set of replicas can serve (max common epoch) — so a
// client never observes rows from one epoch mixed with statistics from
// another, no matter which replicas answered or failed mid-query.
//
// A background poller keeps a cached view of each replica's position;
// queries route on the cache and never block on a status round-trip.
// Slow legs are hedged to the next replica after HedgeAfter, failed legs
// fail over to the surviving participants, and a query degrades (with an
// obs counter) rather than erroring as long as one replica can serve
// every shard range at the chosen epoch.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client

	mu    sync.Mutex
	views map[string]*view

	cancel context.CancelFunc
	done   chan struct{}
}

type view struct {
	at  time.Time
	ok  bool
	err string
	st  ReplicaStatus
}

// NewCoordinator builds a coordinator and starts its status poller.
// Close stops the poller.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("scaleout: coordinator needs at least one replica")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 250 * time.Millisecond
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	c := &Coordinator{cfg: cfg, client: &http.Client{}, views: make(map[string]*view)}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.done = make(chan struct{})
	go c.poll(ctx)
	return c, nil
}

// Close stops the background poller. In-flight queries are unaffected:
// they run on their own request contexts (the server drains them during
// shutdown before Close is called).
func (c *Coordinator) Close() {
	c.cancel()
	<-c.done
}

func (c *Coordinator) poll(ctx context.Context) {
	defer close(c.done)
	c.PollStatus(ctx)
	t := time.NewTicker(c.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.PollStatus(ctx)
		}
	}
}

// PollStatus refreshes the cached view of every replica, concurrently.
func (c *Coordinator) PollStatus(ctx context.Context) {
	var wg sync.WaitGroup
	for _, url := range c.cfg.Replicas {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			st, err := c.fetchStatus(ctx, url)
			v := &view{at: time.Now()}
			if err != nil {
				v.err = err.Error()
				// Keep the last known status so a blip does not erase the
				// replica's position, but mark the view not-ok.
				c.mu.Lock()
				if old := c.views[url]; old != nil {
					v.st = old.st
				}
				c.views[url] = v
				c.mu.Unlock()
				return
			}
			v.ok, v.st = true, st
			c.mu.Lock()
			c.views[url] = v
			c.mu.Unlock()
		}(url)
	}
	wg.Wait()
}

func (c *Coordinator) fetchStatus(ctx context.Context, url string) (ReplicaStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/api/replicate/status", nil)
	if err != nil {
		return ReplicaStatus{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return ReplicaStatus{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return ReplicaStatus{}, fmt.Errorf("status: %s", resp.Status)
	}
	var st ReplicaStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&st); err != nil {
		return ReplicaStatus{}, err
	}
	return st, nil
}

// Views reports the cached replica views (for /api/replicas).
func (c *Coordinator) Views() []ReplicaView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ReplicaView, 0, len(c.cfg.Replicas))
	now := time.Now()
	for _, url := range c.cfg.Replicas {
		rv := ReplicaView{URL: url}
		if v := c.views[url]; v != nil {
			rv.OK, rv.Error, rv.Status = v.ok, v.err, v.st
			rv.AgeMillis = now.Sub(v.at).Milliseconds()
		}
		out = append(out, rv)
	}
	return out
}

// pickEpoch chooses the query epoch: over the replicas with a usable
// view, the epoch servable by the most of them — each replica serves
// the closed interval [MinEpoch, AppliedEpoch] out of its snapshot
// ring — breaking ties toward the newest. Returns the participant URLs
// (config order) and their common shard count.
func (c *Coordinator) pickEpoch() (epoch uint64, participants []string, shards int, err error) {
	c.mu.Lock()
	type cand struct {
		url string
		st  ReplicaStatus
	}
	var cands []cand
	for _, url := range c.cfg.Replicas {
		v := c.views[url]
		if v == nil || !v.ok || v.st.AppliedEpoch == 0 {
			continue
		}
		cands = append(cands, cand{url, v.st})
	}
	if len(cands) == 0 {
		// No poll is currently succeeding. Under saturation the status
		// probes starve behind query legs — treating that as "fleet dead"
		// turns peak load into a fast-failing 503 storm. Fall back to the
		// last-known statuses instead: epoch-pinned legs stay correct
		// (a truly dead replica fails its leg and the fan-out fails over
		// or errors), this only keeps the coordinator answering.
		for _, url := range c.cfg.Replicas {
			v := c.views[url]
			if v == nil || v.st.AppliedEpoch == 0 {
				continue
			}
			cands = append(cands, cand{url, v.st})
		}
		if len(cands) > 0 {
			mCoordStale.Inc()
		}
	}
	c.mu.Unlock()
	if len(cands) == 0 {
		return 0, nil, 0, ErrNoCommonEpoch
	}
	// The best (coverage, epoch) pair is always attained at some
	// replica's AppliedEpoch, so only those need testing.
	best := -1
	for _, probe := range cands {
		e := probe.st.AppliedEpoch
		n := 0
		for _, x := range cands {
			if x.st.MinEpoch <= e && e <= x.st.AppliedEpoch {
				n++
			}
		}
		if n > best || (n == best && e > epoch) {
			best, epoch = n, e
		}
	}
	for _, x := range cands {
		if x.st.MinEpoch <= epoch && epoch <= x.st.AppliedEpoch {
			if shards == 0 {
				shards = x.st.Shards
			}
			if x.st.Shards != shards {
				// A replica mirroring a different layout cannot share
				// shard ranges with the others; leave it out.
				continue
			}
			participants = append(participants, x.url)
		}
	}
	if len(participants) == 0 || shards == 0 {
		return 0, nil, 0, ErrNoCommonEpoch
	}
	return epoch, participants, shards, nil
}

// Ready reports whether the coordinator can currently serve: at least
// one replica has a synced, reachable view.
func (c *Coordinator) Ready() error {
	_, _, _, err := c.pickEpoch()
	return err
}

// Epoch returns the epoch the next query would pin to (the response
// cache keys on it).
func (c *Coordinator) Epoch() (uint64, error) {
	e, _, _, err := c.pickEpoch()
	return e, err
}

// Query fans spec out over the replicas at the max common epoch and
// merges the partial results. spec.Epoch, ShardFrom and ShardTo are
// owned by the coordinator and overwritten per leg.
func (c *Coordinator) Query(ctx context.Context, spec QuerySpec) (*Merged, error) {
	start := time.Now()
	defer func() { mCoordMergeSec.ObserveDuration(time.Since(start)) }()

	epoch, participants, shards, err := c.pickEpoch()
	if err != nil {
		return nil, err
	}
	spec.Epoch = epoch

	// Partition the shard space into one contiguous range per
	// participant (first ranges get the remainder). With fewer shards
	// than participants the extra replicas serve as hedge targets only.
	legs := len(participants)
	if legs > shards {
		legs = shards
	}
	type legResult struct {
		idx      int
		p        *Partial
		failures int
		err      error
	}
	ch := make(chan legResult, legs)
	lo := 0
	for i := 0; i < legs; i++ {
		n := shards / legs
		if i < shards%legs {
			n++
		}
		legSpec := spec
		legSpec.ShardFrom, legSpec.ShardTo = lo, lo+n
		lo += n
		// Candidate order: the leg's own participant first, then the
		// others as failover/hedge targets.
		cands := make([]string, 0, len(participants))
		for j := 0; j < len(participants); j++ {
			cands = append(cands, participants[(i+j)%len(participants)])
		}
		go func(idx int, legSpec QuerySpec, cands []string) {
			p, failures, err := c.fetchLeg(ctx, legSpec, cands)
			ch <- legResult{idx: idx, p: p, failures: failures, err: err}
		}(i, legSpec, cands)
	}

	parts := make([]*Partial, legs)
	degradedLegs := 0
	for i := 0; i < legs; i++ {
		r := <-ch
		if r.err != nil {
			return nil, fmt.Errorf("scaleout: shard range leg failed on every replica: %w", r.err)
		}
		parts[r.idx] = r.p
		if r.failures > 0 {
			degradedLegs++
		}
	}
	if degradedLegs > 0 {
		mCoordDegraded.Inc()
	}
	m, err := MergePartials(spec, parts)
	if err != nil {
		return nil, err
	}
	m.Replicas = len(participants)
	m.Degraded = degradedLegs
	return m, nil
}

// fetchLeg runs one partition leg: the primary replica first, a hedge
// to the next candidate if the primary runs past HedgeAfter, and
// error-driven failover through the remaining candidates. The first
// success wins and cancels the rest; failures counts candidates that
// definitively failed.
func (c *Coordinator) fetchLeg(ctx context.Context, spec QuerySpec, cands []string) (*Partial, int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type attempt struct {
		p   *Partial
		err error
	}
	ch := make(chan attempt, len(cands))
	launched := 0
	launch := func() {
		url := cands[launched]
		launched++
		mCoordFanout.Inc()
		go func() {
			p, err := c.fetchPartial(ctx, url, spec)
			ch <- attempt{p, err}
		}()
	}
	launch()
	hedge := time.NewTimer(c.cfg.HedgeAfter)
	defer hedge.Stop()
	pending, failures := 1, 0
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return nil, failures, ctx.Err()
		case <-hedge.C:
			if launched < len(cands) {
				mCoordHedges.Inc()
				launch()
				pending++
			}
		case a := <-ch:
			pending--
			if a.err == nil {
				return a.p, failures, nil
			}
			if ctx.Err() != nil {
				return nil, failures, ctx.Err()
			}
			var ce *ClientError
			if errors.As(a.err, &ce) {
				return nil, failures, a.err
			}
			failures++
			mCoordDown.Inc()
			if firstErr == nil {
				firstErr = a.err
			}
			if launched < len(cands) {
				launch()
				pending++
			} else if pending == 0 {
				return nil, failures, firstErr
			}
		}
	}
}

// fetchPartial issues one epoch-pinned partial query.
func (c *Coordinator) fetchPartial(ctx context.Context, url string, spec QuerySpec) (*Partial, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	body, err := json.Marshal(&spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/api/query/partial", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusBadRequest {
			return nil, &ClientError{Msg: string(bytes.TrimSpace(msg))}
		}
		return nil, fmt.Errorf("partial query %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	var p Partial
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, err
	}
	return &p, nil
}

package server

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent identical cache misses — /api/query
// answers and rendered pages alike — into one computation. Under a cold cache and N concurrent clients
// asking the same few query shapes, letting every request compute (or
// fan out to replicas) independently multiplies the work N-fold and —
// on the coordinator — can stampede the replicas so hard that no
// single request finishes before its legs time out, which keeps the
// cache cold forever. With a flight per cache key, the first request
// computes and every concurrent duplicate waits for that one result.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done chan struct{}
	resp *answer
	err  error
}

// do runs fn once per key at a time. The caller that starts the flight
// computes; every concurrent caller with the same key blocks until the
// result lands (or its own ctx is cancelled) and shares it. The second
// return reports whether the result came from another caller's flight.
//
// fn must not be bound to the waiters' request contexts — the leader
// passes its own detached context so one departing client cannot fail
// everyone else's request.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*answer, error)) (*answer, bool, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		mQueryCoalesced.Inc()
		select {
		case <-f.done:
			return f.resp, true, f.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.resp, f.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.resp, false, f.err
}

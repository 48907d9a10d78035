package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightGroupCoalesces pins the single-flight contract: N
// concurrent callers with one key produce exactly one computation, and
// every waiter shares its result.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	var computes atomic.Int64
	gate := make(chan struct{})
	want := &answer{epoch: 42}

	const n = 32
	results := make([]*answer, n)
	sharedCount := atomic.Int64{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, shared, err := g.do(context.Background(), "k", func() (*answer, error) {
				computes.Add(1)
				<-gate
				return want, nil
			})
			if err != nil {
				t.Errorf("flight %d: %v", i, err)
				return
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = resp
		}(i)
	}
	// Let every goroutine reach the flight before releasing the leader.
	deadline := time.Now().Add(5 * time.Second)
	for computes.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // waiters pile onto the open flight
	close(gate)
	wg.Wait()

	// Exactly-once holds for every caller that arrived while the flight
	// was open; a straggler scheduled only after the flight closed would
	// start a fresh one, so tolerate a rare extra without accepting
	// no-coalescing.
	if got := computes.Load(); got >= int64(n)/2 {
		t.Fatalf("%d computations for %d concurrent callers — no coalescing", got, n)
	}
	for i, r := range results {
		if r != want {
			t.Fatalf("caller %d got %p, want the shared response", i, r)
		}
	}
	if sharedCount.Load() == 0 {
		t.Fatal("no caller reported a shared result")
	}
}

// TestFlightGroupErrorsShared: a failing flight fails every waiter with
// the same error, and the key is released for the next attempt.
func TestFlightGroupErrorsShared(t *testing.T) {
	var g flightGroup
	boom := errors.New("boom")
	if _, _, err := g.do(context.Background(), "k", func() (*answer, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Key released: a later call computes fresh.
	resp, shared, err := g.do(context.Background(), "k", func() (*answer, error) {
		return &answer{epoch: 1}, nil
	})
	if err != nil || shared || resp.epoch != 1 {
		t.Fatalf("post-error flight: resp=%+v shared=%v err=%v", resp, shared, err)
	}
}

// TestFlightGroupWaiterCancel: a waiter whose context dies leaves the
// flight without waiting for the leader.
func TestFlightGroupWaiterCancel(t *testing.T) {
	var g flightGroup
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	go g.do(context.Background(), "k", func() (*answer, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.do(ctx, "k", func() (*answer, error) {
		t.Error("waiter ran the computation")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v", err)
	}
}

package parallel

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != 1 {
		t.Fatalf("Workers(0) = %d, want sequential", got)
	}
	if got := Workers(Auto); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(Auto) = %d, want GOMAXPROCS", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		const n = 101
		hits := make([]int32, n)
		For(n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	called := false
	For(0, 4, func(start, end int) { called = true })
	if called {
		t.Fatal("For(0, ...) ran its body")
	}
	For(1, 8, func(start, end int) {
		if start != 0 || end != 1 {
			t.Fatalf("bounds = [%d, %d)", start, end)
		}
		called = true
	})
	if !called {
		t.Fatal("For(1, ...) skipped its body")
	}
}

func TestMapIndependentOfWorkers(t *testing.T) {
	f := func(i int) int { return i * i }
	want := Map(50, 1, f)
	for _, workers := range []int{2, 5, 16} {
		got := Map(50, workers, f)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 4} {
		var attempted atomic.Int32
		_, err := MapErr(10, workers, func(i int) (int, error) {
			attempted.Add(1)
			switch i {
			case 3:
				return 0, errLow
			case 7:
				return 0, errHigh
			}
			return i, nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
		if got := attempted.Load(); got != 10 {
			t.Fatalf("workers=%d: %d of 10 indices attempted", workers, got)
		}
	}
	out, err := MapErr(4, 2, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestForEachHandsOutToTheFreeWorker holds job 0 until every other index
// has run: with two workers that only ends if the worker that is not
// stuck in job 0 takes all the rest. Under a pre-cut split the stuck
// worker owns indices it never reaches and the call deadlocks.
func TestForEachHandsOutToTheFreeWorker(t *testing.T) {
	const n = 9
	var others atomic.Int32
	othersDone := make(chan struct{})
	giveUp := make(chan struct{})
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		ForEach(n, 2, func(i int) {
			if i == 0 {
				select {
				case <-othersDone:
				case <-giveUp:
				}
				return
			}
			if others.Add(1) == n-1 {
				close(othersDone)
			}
		})
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		ran := others.Load()
		close(giveUp)
		<-returned
		t.Fatalf("job 0 still waits after 10s with %d of %d other indices run: the free worker is not handed the next index (contiguous chunks?)",
			ran, n-1)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		for _, n := range []int{0, 1, workers - 1, workers, 1000} {
			hits := make([]int32, n)
			ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestOneWorkerRunsInlineInIndexOrder pins what the sequential pipeline
// relies on: at workers <= 1 the body runs on the caller's goroutine (the
// caller's frame is on the body's stack) in ascending index order.
func TestOneWorkerRunsInlineInIndexOrder(t *testing.T) {
	onCallersStack := func() bool {
		pcs := make([]uintptr, 64)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, ".TestOneWorkerRunsInlineInIndexOrder") {
				return true
			}
			if !more {
				return false
			}
		}
	}
	for _, workers := range []int{0, 1} {
		var order []int
		body := func(i int) int {
			if !onCallersStack() {
				t.Errorf("workers=%d: index %d ran off the caller's goroutine", workers, i)
			}
			order = append(order, i)
			return i
		}
		ForEach(5, workers, func(i int) { body(i) })
		Map(5, workers, body)
		if _, err := MapErr(5, workers, func(i int) (int, error) { return body(i), nil }); err != nil {
			t.Fatal(err)
		}
		for at, i := range order {
			if i != at%5 {
				t.Fatalf("workers=%d: call order %v, want 0..4 three times", workers, order)
			}
		}
		if len(order) != 15 {
			t.Fatalf("workers=%d: %d calls, want 15", workers, len(order))
		}
	}
}

func TestChunkReduceExactCounts(t *testing.T) {
	// Integer folds must not depend on the chunking.
	want := ChunkReduce(1000, 1, 0,
		func(start, end int) int {
			s := 0
			for i := start; i < end; i++ {
				s += i
			}
			return s
		},
		func(acc, part int) int { return acc + part })
	for _, workers := range []int{2, 3, 8, 1000} {
		got := ChunkReduce(1000, workers, 0,
			func(start, end int) int {
				s := 0
				for i := start; i < end; i++ {
					s += i
				}
				return s
			},
			func(acc, part int) int { return acc + part })
		if got != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, want)
		}
	}
}

func TestTasksSequentialShortCircuits(t *testing.T) {
	boom := errors.New("boom")
	ran := []bool{false, false, false}
	err := Tasks(1,
		func() error { ran[0] = true; return nil },
		func() error { ran[1] = true; return boom },
		func() error { ran[2] = true; return nil },
	)
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	if !ran[0] || !ran[1] || ran[2] {
		t.Fatalf("ran = %v, want short-circuit after failure", ran)
	}
}

func TestTasksParallelReturnsLowestIndexError(t *testing.T) {
	e1, e2 := errors.New("e1"), errors.New("e2")
	err := Tasks(4,
		func() error { return nil },
		func() error { return e1 },
		func() error { return e2 },
	)
	if err != e1 {
		t.Fatalf("err = %v, want %v", err, e1)
	}
	if err := Tasks(4); err != nil {
		t.Fatalf("no tasks: err = %v", err)
	}
}

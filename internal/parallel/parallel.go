// Package parallel provides the bounded concurrency primitives the INDICE
// analytics engine threads through its hot paths, two shapes of fan-out
// and a task group:
//
//   - For (and ChunkReduce) cut [0, n) into contiguous chunks, one per
//     worker: the shape for row loops, where every index costs about the
//     same and a worker wants a cache-friendly range of its own.
//   - ForEach, Map and MapErr hand out the next index to whichever worker
//     is free: the shape for jobs of unequal cost (K-means runs, outlier
//     zones, distinct addresses, CART attributes, Apriori candidates,
//     shards), where a pre-cut half can hold most of the work.
//   - Tasks runs independent pipeline stages concurrently.
//
// Every helper takes an explicit worker count resolved by Workers: 1 (or
// 0, the zero value of the configs that embed it) runs inline on the
// caller's goroutine, in index order, with no goroutines, and Auto expands
// to GOMAXPROCS. Callers that need bitwise-identical results across worker
// counts must keep their reductions order-independent (integer counts) or
// reduce indexed results sequentially; ChunkReduce folds chunk results in
// ascending chunk order to make the order at least deterministic for a
// fixed worker count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Auto requests one worker per available CPU (GOMAXPROCS).
const Auto = -1

// Workers resolves a requested parallelism degree: values >= 1 are taken
// as-is, 0 (the zero value of embedding configs) means sequential, and
// negative values (Auto) mean GOMAXPROCS.
func Workers(requested int) int {
	switch {
	case requested >= 1:
		return requested
	case requested == 0:
		return 1
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// ChunkSize is the length of the contiguous chunks For and ChunkReduce cut
// [0, n) into: chunk c covers [c*size, min(n, (c+1)*size)), and there are
// at most Workers(workers) of them. A For body that keeps per-chunk state
// across calls indexes it by start/size.
func ChunkSize(n, workers int) int {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return n
	}
	return (n + workers - 1) / workers
}

// For splits [0, n) into at most workers contiguous chunks and runs body
// on each concurrently. body receives the half-open [start, end) bounds
// of its chunk. One worker (or n <= 1) degrades to a single inline call.
func For(n, workers int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	chunk := ChunkSize(n, workers)
	if chunk == n {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			body(s, e)
		}(start, end)
	}
	wg.Wait()
}

// ForEach runs body(i) for every i in [0, n) on at most workers
// goroutines, each taking the next index not yet handed out as soon as it
// is free, so the jobs may cost anything: no worker idles while an index
// is left. One worker calls body inline, in index order.
func ForEach(n, workers int, body func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

// Map fills out[i] = f(i) for i in [0, n) across workers. Each index is
// computed independently, so the result does not depend on workers.
func Map[T any](n, workers int, f func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) {
		out[i] = f(i)
	})
	return out
}

// MapErr is Map for fallible producers. All indices are attempted; the
// error of the lowest failing index is returned (deterministic across
// worker counts), alongside the partial results.
func MapErr[T any](n, workers int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, workers, func(i int) {
		out[i], errs[i] = f(i)
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ChunkReduce maps each contiguous chunk of [0, n) through mapper on
// workers goroutines, then folds the chunk results into acc in ascending
// chunk order. The fold itself runs on the calling goroutine. Reductions
// over exact values (integer counts) are independent of the chunking;
// floating-point folds are deterministic only for a fixed worker count.
func ChunkReduce[T any](n, workers int, acc T, mapper func(start, end int) T, fold func(acc, part T) T) T {
	if n <= 0 {
		return acc
	}
	chunk := ChunkSize(n, workers)
	if chunk == n {
		return fold(acc, mapper(0, n))
	}
	nchunks := (n + chunk - 1) / chunk
	parts := make([]T, nchunks)
	var wg sync.WaitGroup
	for c := 0; c < nchunks; c++ {
		start := c * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(c, s, e int) {
			defer wg.Done()
			parts[c] = mapper(s, e)
		}(c, start, end)
	}
	wg.Wait()
	for _, p := range parts {
		acc = fold(acc, p)
	}
	return acc
}

// Tasks runs independent stage functions on at most workers goroutines
// and returns the error of the lowest-index failing task. With one worker
// the tasks run inline in order and the first failure short-circuits the
// rest — the fully sequential pipeline. With more workers every task runs
// to completion; since callers discard their output on error, the two
// modes are observationally identical.
func Tasks(workers int, tasks ...func() error) error {
	workers = Workers(workers)
	if workers == 1 {
		for _, task := range tasks {
			if err := task(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func(i int, task func() error) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = task()
		}(i, task)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

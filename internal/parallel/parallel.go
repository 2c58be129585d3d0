// Package parallel provides the bounded fork-join primitive the
// execution engines use to fan out pure compute.
//
// The runtime's two-phase parallel design (see DESIGN.md) splits every
// task into a compute half — user map/reduce functions, record decode,
// sorting, encoding — and an accounting half — slot acquisition,
// virtual-time arithmetic, metrics and event emission. Only the compute
// half goes through this package; the accounting half always replays
// serially in deterministic order, so a parallel run's outputs and
// virtual timeline are byte-identical to a serial run's by
// construction. Callers must therefore only pass closures whose writes
// go to index-distinct slots (no shared mutable state beyond what the
// closure's targets already synchronize).
package parallel

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), using at most `workers`
// concurrent goroutines. workers <= 1 (or n <= 1) degenerates to a
// plain serial loop on the calling goroutine, so a Workers=1 engine
// never spawns a goroutine. For returns when every fn has returned.
func For(workers, n int, fn func(i int)) {
	ForWorker(workers, n, func(_, i int) { fn(i) })
}

// ForWorker is For with the executing worker's index passed to the
// body (0 in serial mode, [0, workers) otherwise). Engines use it to
// give each worker a scratch of its own and to attribute prepared work
// to pool workers in profiles; which worker handles which index is
// nondeterministic in parallel mode, so the index must never feed back
// into results or virtual time. A panicking body panics the caller at
// any width; in parallel the other indexes run first, then the lowest
// panicking index's value is re-raised on the calling goroutine.
func ForWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var pool struct { // what the goroutines share, in one allocation
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first int // the lowest panicking index, and its value
		value any
	}
	pool.first = n
	pool.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer pool.wg.Done()
			for {
				i := int(pool.next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if v := recover(); v != nil {
							pool.mu.Lock()
							if i < pool.first {
								pool.first, pool.value = i, v
							}
							pool.mu.Unlock()
						}
					}()
					fn(worker, i)
				}()
			}
		}(w)
	}
	pool.wg.Wait()
	if pool.first < n {
		panic(pool.value)
	}
}

// ForErr is For over a fallible body. Every index still runs (no
// cancellation — bodies are expected to be short, pure compute), and
// the error reported is the lowest-index one, so the surfaced failure
// is deterministic regardless of goroutine interleaving.
func ForErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 1 || n == 1 {
		// Serial mode preserves historical behaviour exactly: fail
		// fast at the first erroring index.
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	For(workers, n, func(i int) {
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

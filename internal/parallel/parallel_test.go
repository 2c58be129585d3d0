package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			seen := make([]atomic.Int32, max(n, 1))
			For(workers, n, func(i int) { seen[i].Add(1) })
			for i := 0; i < n; i++ {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForSerialRunsInOrder(t *testing.T) {
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial For out of order: %v", order)
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4} {
		err := ForErr(workers, 10, func(i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Fatalf("workers=%d: got %v, want lowest-index error %v", workers, err, errA)
		}
	}
}

// TestForWorkerPanicReachesCaller: a panicking body panics the caller
// with the lowest panicking index's value at every width; in parallel
// every other index still runs first, serially none after it does.
func TestForWorkerPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		const n = 40
		var ran [n]atomic.Int32
		got := func() (v any) {
			defer func() { v = recover() }()
			ForWorker(workers, n, func(_, i int) {
				ran[i].Add(1)
				if i == 3 || i == 7 || i == n-1 {
					panic(fmt.Sprintf("index %d", i))
				}
			})
			return nil
		}()
		if got != "index 3" {
			t.Fatalf("workers=%d: caller recovered %v, want the lowest index's value", workers, got)
		}
		for i := range ran {
			want := int32(1)
			if workers == 1 && i > 3 {
				want = 0
			}
			if r := ran[i].Load(); r != want {
				t.Fatalf("workers=%d: index %d ran %d times, want %d", workers, i, r, want)
			}
		}
	}
}

func TestForErrNilOnSuccess(t *testing.T) {
	if err := ForErr(4, 50, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package parallel

import (
	"errors"
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

package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		requested, n, want int
	}{
		{0, 1 << 20, procs},               // non-positive means GOMAXPROCS
		{-3, 1 << 20, procs},              // negative too
		{0, -1, procs},                    // negative n sets no cap
		{64, -1, 64},                      // explicit request, no cap
		{8, 3, 3},                         // never more workers than jobs
		{0, 0, 1},                         // never fewer than one
		{5, 0, 1},                         // n = 0
		{1, 100, 1},                       // explicit one
		{procs + 1, procs + 1, procs + 1}, // requests above GOMAXPROCS stand
	} {
		if got := Workers(tc.requested, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.requested, tc.n, got, tc.want)
		}
	}
}

// TestEachRunsEveryJobOnce: every job number in [0, n) reaches exactly
// one worker exactly once, at every worker count.
func TestEachRunsEveryJobOnce(t *testing.T) {
	const n = 1000
	for workers := 1; workers <= 8; workers++ {
		runs := make([]atomic.Int32, n)
		var started atomic.Int32
		err := Each(n, workers, func(next func() (int, bool)) error {
			started.Add(1)
			for j, ok := next(); ok; j, ok = next() {
				runs[j].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := int(started.Load()); got != workers {
			t.Errorf("workers=%d: %d workers started", workers, got)
		}
		for j := range runs {
			if c := runs[j].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, j, c)
			}
		}
	}
}

func TestEachNoJobs(t *testing.T) {
	for _, n := range []int{0, -1} {
		called := false
		err := Each(n, 4, func(next func() (int, bool)) error {
			called = true
			return errors.New("worker ran")
		})
		if err != nil || called {
			t.Fatalf("n=%d: worker called %v, err %v; want nothing run", n, called, err)
		}
	}
}

// TestEachLowestFailedJobWins: jobs 5 and 40 fail, and job 5 sleeps
// first, so with several workers job 40 fails earlier in time. Each
// must still report job 5's error, with every job below 5 run, whatever
// the worker count.
func TestEachLowestFailedJobWins(t *testing.T) {
	const n = 100
	for workers := 1; workers <= 8; workers++ {
		var ran [n]atomic.Bool
		err := Each(n, workers, func(next func() (int, bool)) error {
			for j, ok := next(); ok; j, ok = next() {
				ran[j].Store(true)
				switch j {
				case 5:
					time.Sleep(20 * time.Millisecond)
					return fmt.Errorf("job %d", j)
				case 40:
					return fmt.Errorf("job %d", j)
				}
			}
			return nil
		})
		if err == nil || err.Error() != "job 5" {
			t.Fatalf("workers=%d: Each = %v, want job 5's error", workers, err)
		}
		for j := 0; j < 5; j++ {
			if !ran[j].Load() {
				t.Fatalf("workers=%d: job %d below the failure never ran", workers, j)
			}
		}
	}
}

// TestEachOneWorkerInline: one worker runs on the caller's goroutine.
func TestEachOneWorkerInline(t *testing.T) {
	caller := goroutineID()
	var worker string
	if err := Each(10, 1, func(next func() (int, bool)) error {
		worker = goroutineID()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if worker != caller {
		t.Fatalf("one worker ran on goroutine %s, caller is %s", worker, caller)
	}
}

// goroutineID reads the current goroutine's number from the first line
// of its stack trace, "goroutine N [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// Package par spreads numbered jobs over a bounded set of goroutines.
//
// PaSTRI blocks are self-contained (Sec. IV-C of the paper), so every
// fan-out in this module has one shape: jobs 0..n-1, each writing only
// its own slot of a result slice, on workers that each own private
// scratch state (an encoder, a decoder, an integral engine). par is the
// one place that decides how many workers run, how jobs reach them and
// which error is reported, so those rules cannot drift between callers.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for n jobs: a non-positive
// request means GOMAXPROCS, the result never exceeds n (a negative n,
// for a job stream of unknown length, sets no cap) and it is never
// less than 1.
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if n >= 0 && requested > n {
		requested = n
	}
	return max(requested, 1)
}

// Each runs jobs 0..n-1 on Workers(workers, n) goroutines. worker runs
// once per goroutine: it builds its own state, takes job numbers from
// next until next reports none left, and returns the error of the job
// it stopped at (nil if it ran out of jobs). Jobs are handed out in
// increasing order, and once any worker has failed next hands out no
// more.
//
// Each returns the error of the lowest-numbered failed job. Every job
// below it has run by then, so the reported error does not depend on
// the schedule. With one worker, worker runs on the caller's goroutine
// and no goroutine is started.
func Each(n, workers int, worker func(next func() (int, bool)) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		job := 0
		//lint:hotalloc2-ok one job source per fan-out, not per job
		return worker(func() (int, bool) {
			if job >= n {
				return 0, false
			}
			job++
			return job - 1, true
		})
	}

	type outcome struct {
		job int // last job handed to this worker; -1 before the first
		err error
	}
	//lint:hotalloc2-ok one slice per fan-out, not per job
	outcomes := make([]outcome, workers)
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := range outcomes {
		wg.Add(1)
		//lint:hotalloc2-ok one goroutine closure per worker, not per job
		go func() {
			defer wg.Done()
			o := &outcomes[w]
			o.job = -1
			//lint:hotalloc2-ok one job source per worker, not per job
			o.err = worker(func() (int, bool) {
				if failed.Load() {
					return 0, false
				}
				j := int(cursor.Add(1) - 1)
				if j >= n {
					return 0, false
				}
				o.job = j
				return j, true
			})
			if o.err != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	var first *outcome
	for i := range outcomes {
		if o := &outcomes[i]; o.err != nil && (first == nil || o.job < first.job) {
			first = o
		}
	}
	if first == nil {
		return nil
	}
	return first.err
}

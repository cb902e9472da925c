package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// arrival is one scheduled request of an open loop.
type arrival struct {
	at  time.Duration // offset from the phase start
	key int           // index into the workload's block list
}

// poissonSchedule draws arrivals at rate per second over dur, each for
// a key chosen uniformly from [0, nkeys).
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, nkeys int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * 1e9)
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, key: rng.IntN(nkeys)})
	}
}

// openLoop issues sched from start with senders goroutines, until the
// schedule ends or ctx is done. Each sender takes the next arrival,
// sleeps until it is due and sends it, so the offered rate does not drop
// when the daemon slows. Latency is timed from the due time, which
// charges a stall to every request it delays; late is how far behind
// schedule each request was sent.
func openLoop(ctx context.Context, start time.Time, sched []arrival, senders int, do func(sender int, a arrival)) (lat, late samples) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for s := range senders {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var myLat, myLate samples
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || ctx.Err() != nil {
					break
				}
				due := start.Add(sched[i].at)
				sleepUntil(due)
				sent := time.Now()
				do(s, sched[i])
				myLate = append(myLate, sent.Sub(due))
				myLat = append(myLat, time.Since(due))
			}
			mu.Lock()
			lat = append(lat, myLat...)
			late = append(late, myLate...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	return lat, late
}

// closedLoop runs callers goroutines that each issue their next request
// as soon as the previous one returns, until deadline or until ctx is
// done. It returns every request's latency and the wall time the loop
// ran.
func closedLoop(ctx context.Context, callers int, deadline time.Time, do func(caller int)) (lat samples, elapsed time.Duration) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for c := range callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine samples
			for {
				t0 := time.Now()
				if !t0.Before(deadline) || ctx.Err() != nil {
					break
				}
				do(c)
				mine = append(mine, time.Since(t0))
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return lat, time.Since(start)
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks in nanosleep until t, on a thread whose timer slack
// is 1 ns. On Linux, time.Sleep rounds waits under a millisecond up to
// about 1 ms, and nanosleep with the default 50 µs slack overshoots by
// 50 µs; either would dominate the latency of a 100 µs read timed from
// its due time. The goroutine is locked to its thread only while it
// sleeps, so the HTTP request that follows runs unpinned.
func sleepUntil(t time.Time) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) //lint:errdrop-ok without it waits are coarser, which the late_us metric reports
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //lint:errdrop-ok EINTR or an early wake just loops
	}
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

// The VM this benchmark was written on shares its host, and the host's
// speed drifts over minutes with no steal time reported: a codec round
// trip took 4.4 ms in a calm minute and 6.3 ms in a busy one, and
// closed-loop hot reads ran at 21,000/s in one minute and 10,700/s two
// minutes later. No run length averages that out. So the benchmark times
// a fixed reference after every one-second slice of measured work and
// reports every gated timing as a host on which the reference takes its
// nominal time would have measured it: each slice's samples divided by
// the slowdown the reference measured right after that slice.
//
// While the reference runs, the code under test is held still: the
// daemon is stopped with SIGSTOP, and this process runs no garbage
// collection. Otherwise work the code under test does outside its
// requests — a collection its allocations caused, a background tick of
// the daemon — would slow the reference as much as the requests, and
// scaling would hide it.
//
// The reference has up to four parts: a chain of dependent
// floating-point operations, which tracks the core; strided reads of a
// buffer larger than L2, which track the shared cache and memory; for
// the service workloads, one-byte round trips over a loopback TCP
// connection, which track the kernel's network path and the wake-ups of
// idle vCPUs that every HTTP request pays; and, for ingest_mixed, two
// commits of a new 40 KiB file (write, fsync, rename) on the store's
// filesystem, as every upload commits a segment and an index, which
// track the disk. The quartile spreads of 20-second medians in long
// probes, unscaled → scaled:
//
//	codec round trips        11% → 3.5% (compute parts; 5.7% and 9% by either alone)
//	read_hot closed loop     23% → 7.6% (all parts; 13.5% by the compute parts alone)
//	read_cold closed loop    14% → 7.9% (all parts; 9.6% by the compute parts alone)
//	ingest_mixed upload p50  20% → 9.3% (all parts; 15% without the disk part)
//
// The reference is the benchmark's own code, identical on every commit.
// The unscaled values stay in the result file, and -compare flags a cell
// that its scaled or its unscaled values call regressed but not both.

const (
	refFloats    = 4 << 20 / 8 // a 4 MiB buffer: twice the 2 MiB L2, well inside L3
	refPasses    = 8           // passes over the buffer per reference, about 1 ms
	refChain     = 150_000     // dependent operations per reference, about 1 ms
	refRoundTrip = 300         // loopback round trips per reference, about 2 ms
	refCommits   = 2           // file commits per reference, about 1 ms
	refCommitKiB = 40          // the size of an uploaded 64-block (dd|dd) segment
	refsPerSlot  = 4           // references timed at each sample point

	// The median reference times, in µs, on the reference VM in a calm
	// minute. They only set the scale; comparisons need the same value on
	// both sides, which a constant gives.
	nominalComputeUS   = 2200
	nominalRoundTripUS = 2000
	nominalCommitsUS   = 800
)

// hostSpeed times the reference. Only the run's own goroutine, between
// slices of load, calls sample.
type hostSpeed struct {
	buf     []float64
	lb      *loopback // nil for the codec workload, which makes no syscalls to speak of
	diskDir string    // where the commit part writes; "" leaves it out
	times   samples   // whole references
	net     samples   // their loopback parts
	disk    samples   // their commit parts
	last    time.Time // when sample last returned
	err     error     // the first failure of a part
	sink    float64
}

// newHostSpeed prepares the reference; withNet adds the loopback part,
// and a diskDir the commit part, written in that directory.
func newHostSpeed(withNet bool, diskDir string) (*hostSpeed, error) {
	h := &hostSpeed{buf: make([]float64, refFloats), diskDir: diskDir}
	// Written so every page is backed by memory of its own; a never
	// written allocation reads from the shared zero page.
	for i := range h.buf {
		h.buf[i] = float64(i)
	}
	if withNet {
		lb, err := newLoopback()
		if err != nil {
			return nil, fmt.Errorf("host-speed reference: %w", err)
		}
		h.lb = lb
	}
	return h, nil
}

// close stops the loopback echo, if any, and waits for it to end.
func (h *hostSpeed) close() {
	if h.lb != nil {
		h.lb.close()
	}
}

// sample times the reference refsPerSlot times with the code under test
// held still: daemon, when not nil, stopped until the reference is done,
// and no collection of this process running. It returns the slowdown
// these references show, for the slice of load just before them.
func (h *hostSpeed) sample(daemon *os.Process) float64 {
	from := len(h.times)
	defer func() { h.last = time.Now() }()
	// SetGCPercent(-1) returns only once a collection in progress has
	// finished, and no other starts until the percentage is restored.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	if daemon != nil && h.err == nil {
		resume, err := stopProcess(daemon)
		if err != nil {
			h.err = err
			return 1 // the run fails on h.err; the value is never reported
		}
		defer resume()
	}
	for range refsPerSlot {
		t0 := time.Now()
		x, s := 1.0001, 0.0
		for range refChain {
			x = x*1.0000001 + 1e-9
			s += math.Sqrt(x)
		}
		for range refPasses {
			for i := 0; i < len(h.buf); i += 8 { // one float64 per 64-byte line
				s += h.buf[i]
			}
		}
		if h.lb != nil && h.err == nil {
			t1 := time.Now()
			h.err = h.lb.roundTrips(refRoundTrip)
			h.net = append(h.net, time.Since(t1))
		}
		if h.diskDir != "" && h.err == nil {
			t1 := time.Now()
			h.err = h.commits()
			h.disk = append(h.disk, time.Since(t1))
		}
		h.times = append(h.times, time.Since(t0))
		h.sink += s
	}
	return h.times[from:].us(0.5) / h.nominalUS()
}

// commits writes refCommits new files the way pastrid commits a segment:
// write to a temporary name, fsync, close, rename over the last one.
func (h *hostSpeed) commits() error {
	buf := make([]byte, refCommitKiB<<10)
	for i := range refCommits {
		path := filepath.Join(h.diskDir, fmt.Sprintf("hostspeed-%d", i))
		f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.Write(buf)
		serr := f.Sync()
		if err := errors.Join(werr, serr, f.Close()); err != nil {
			return err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return err
		}
	}
	return nil
}

// slowdown is the run's median reference time over the nominal one:
// above 1 when the host ran slower than the reference VM. It is reported
// beside the scaled values, and fails if any part of the reference did.
func (h *hostSpeed) slowdown() (float64, error) {
	if h.err != nil {
		return 0, fmt.Errorf("host-speed reference: %w", h.err)
	}
	if len(h.times) == 0 {
		return 0, errors.New("host-speed reference never sampled")
	}
	return h.times.us(0.5) / h.nominalUS(), nil
}

// nominalUS is the reference's nominal time with the parts it has.
func (h *hostSpeed) nominalUS() float64 {
	nominal := float64(nominalComputeUS)
	if h.lb != nil {
		nominal += nominalRoundTripUS
	}
	if h.diskDir != "" {
		nominal += nominalCommitsUS
	}
	return nominal
}

// stopProcess stops p with SIGSTOP and returns once every thread of it
// has stopped; resume continues it.
func stopProcess(p *os.Process) (resume func(), err error) {
	if err := p.Signal(syscall.SIGSTOP); err != nil {
		return nil, fmt.Errorf("stopping pid %d: %w", p.Pid, err)
	}
	resume = func() {
		p.Signal(syscall.SIGCONT) //lint:errdrop-ok fails only if the process has exited, which its wait reports
	}
	for deadline := time.Now().Add(time.Second); !allStopped(p.Pid); time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			resume()
			return nil, fmt.Errorf("pid %d did not stop within 1s", p.Pid)
		}
	}
	return resume, nil
}

// allStopped reports whether every thread of pid is in the stopped state,
// 'T' in /proc/<pid>/task/<tid>/stat.
func allStopped(pid int) bool {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "stat"))
		if err != nil {
			return false
		}
		// The state follows the command name, which is in parentheses and
		// may itself hold spaces or parentheses.
		i := bytes.LastIndexByte(raw, ')')
		if i < 0 || i+2 >= len(raw) || raw[i+2] != 'T' {
			return false
		}
	}
	return true
}

// loopback is a TCP connection to an echo goroutine in this process.
type loopback struct {
	ln   net.Listener
	conn net.Conn
	buf  [1]byte
	done chan struct{} // closed when the echo goroutine has returned
}

func newLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{ln: ln, done: make(chan struct{})}
	go lb.echo()
	if lb.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		lb.close()
		return nil, err
	}
	return lb, nil
}

// echo accepts one connection and echoes it until it closes.
func (lb *loopback) echo() {
	defer close(lb.done)
	c, err := lb.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close() //lint:errdrop-ok the peer has closed; nothing was written that could be lost
	var b [1]byte
	for {
		if _, err := c.Read(b[:]); err != nil {
			return
		}
		if _, err := c.Write(b[:]); err != nil {
			return
		}
	}
}

// roundTrips sends one byte and reads its echo n times.
func (lb *loopback) roundTrips(n int) error {
	for range n {
		if _, err := lb.conn.Write(lb.buf[:]); err != nil {
			return err
		}
		if _, err := lb.conn.Read(lb.buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// close ends the echo goroutine and waits for it: closing the listener
// ends a pending Accept, closing the connection ends the echo loop.
func (lb *loopback) close() {
	lb.ln.Close() //lint:errdrop-ok a listener close error changes nothing here
	if lb.conn != nil {
		lb.conn.Close() //lint:errdrop-ok only one-byte probes were written
	}
	<-lb.done
}

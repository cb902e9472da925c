package main

import (
	"slices"
	"time"
)

// samples collects durations of one kind of operation.
type samples []time.Duration

// us returns the q-quantile in microseconds (linear interpolation
// between closest ranks), or 0 for an empty set.
func (s samples) us(q float64) float64 { return quantile(s.sorted(), q) / 1e3 }

// ms returns the q-quantile in milliseconds.
func (s samples) ms(q float64) float64 { return quantile(s.sorted(), q) / 1e6 }

func (s samples) sorted() []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = float64(d)
	}
	slices.Sort(out)
	return out
}

// p99Window is the fewest samples a window of windowedP99ms holds: ten
// beyond its 99th percentile.
const p99Window = 1000

// windowedP99ms splits s, in the order it was taken, into windows of at
// least p99Window samples and returns the median of their 99th
// percentiles, in milliseconds. A burst of host stalls then moves one
// window's p99 rather than the run's, and each window still has ten
// samples beyond its p99. Under 2×p99Window samples it is the plain p99.
func (s samples) windowedP99ms() float64 {
	k := max(1, len(s)/p99Window)
	p99s := make([]float64, k)
	for i := range k {
		p99s[i] = s[i*len(s)/k : (i+1)*len(s)/k].ms(0.99)
	}
	slices.Sort(p99s)
	return quantile(p99s, 0.5)
}

// scaled holds one kind of sample as measured and at nominal host speed.
// Samples are appended to raw as they are taken; settle copies those
// taken since its last call to nominal, divided by the slowdown the
// host-speed reference measured right after them.
type scaled struct{ raw, nominal samples }

func (s *scaled) settle(slowdown float64) {
	for _, d := range s.raw[len(s.nominal):] {
		s.nominal = append(s.nominal, time.Duration(float64(d)/slowdown))
	}
}

// total sums the durations.
func (s samples) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives with its default "exclusive"
// method, so spreads computed here match the ones a checker computes in
// Python. Fewer than two values return the single value three times.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := slices.Clone(values)
	slices.Sort(data)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

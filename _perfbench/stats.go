package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minTail is the number of samples a reported tail percentile must have
// beyond it: with fewer, the "p99" of a small sample is one or two
// outliers, not a property of the system.
const minTail = 10

// tailQuantile returns the quantile to report for a requested tail
// quantile want over n samples: want itself when at least minTail samples
// lie beyond it, else the highest quantile that still leaves minTail
// samples beyond it, and never below the median.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := want
	if lim := 1 - float64(minTail)/float64(n); lim < q {
		q = lim
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist is a sample set with the percentile rules of this benchmark.
type dist struct{ v []float64 }

func (d *dist) add(x float64) { d.v = append(d.v, x) }

func (d *dist) n() int { return len(d.v) }

func (d *dist) sorted() []float64 {
	if !sort.Float64sAreSorted(d.v) {
		sort.Float64s(d.v)
	}
	return d.v
}

// p50 is the median.
func (d *dist) p50() float64 { return quantile(d.sorted(), 0.5) }

// tail returns the value at tailQuantile(n, want) and the quantile used.
func (d *dist) tail(want float64) (float64, float64) {
	q := tailQuantile(d.n(), want)
	return quantile(d.sorted(), q), q
}

// censored returns the latency sample of an awaited outcome: the observed
// wait when it arrived within the drain timeout, else the timeout itself
// (an outcome that never arrives, or arrives too late, enters at the
// timeout). ok reports whether it arrived in time.
func censored(due, got int64, timeout time.Duration) (sample time.Duration, ok bool) {
	if got == 0 || got-due > int64(timeout) {
		return timeout, false
	}
	if got < due {
		return 0, true
	}
	return time.Duration(got - due), true
}

// tally accumulates the failed_ratio accounting: every mutation, every
// expected (mutation, stream) delivery and every resume is an attempt; a
// mutation error, a delivery missing at the drain timeout and a resume
// still incomplete at the drain timeout are failures.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB returns the process's peak resident set size in MiB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

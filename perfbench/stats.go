package main

import (
	"slices"
	"syscall"
	"time"
)

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianInt(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return median(fs)
}

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it, and that percentile. With fewer than tailBeyond+1
// samples it returns the maximum as the 100th percentile.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

// tailWindow is the number of consecutive steps over which one tail is
// taken: the 11th-slowest of 200 steps, p95.
const tailWindow = 200

// windowedTail splits xs, in the order the steps ran, into as many
// consecutive windows of about tailWindow steps as it holds (at least one)
// and returns the median over the windows of each window's tail, and the
// percentile of the first window's tail. A burst of machine noise that
// slows more than tailBeyond consecutive steps then sets the tail of one
// window, not the run's.
func windowedTail(xs []float64) (value, pct float64) {
	k := max(1, len(xs)/tailWindow)
	tails := make([]float64, k)
	for i := range tails {
		tails[i], _ = tail(xs[i*len(xs)/k : (i+1)*len(xs)/k])
	}
	_, pct = tail(xs[:len(xs)/k])
	return median(tails), pct
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

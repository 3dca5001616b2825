package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or NaN when xs is empty. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the 50th percentile; for an even count it averages the two
// middle values, so a pair of readings reports their mean.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// samples collects durations as float64 in a chosen unit.
type samples struct {
	unit time.Duration
	xs   []float64
}

func (s *samples) add(d time.Duration) { s.xs = append(s.xs, float64(d)/float64(s.unit)) }

func (s *samples) pct(p float64) float64 {
	return percentile(append([]float64(nil), s.xs...), p)
}

// stopwatch times an interval by the wall clock and by the host's CPU
// accounting. The host is a few vCPUs of a shared machine, and the
// hypervisor takes them away for other tenants from time to time (steal);
// the same work then reads up to twice as slow. The accounting lets a
// reading leave that time out.
type stopwatch struct {
	start time.Time
	ticks hostTicks
}

func startWatch() stopwatch { return stopwatch{time.Now(), readTicks()} }

// stop returns the interval's wall seconds and its unstolen seconds, the
// wall time less stolenSeconds. With no steal the two are equal.
func (w stopwatch) stop() (wall, unstolen float64) {
	wall = seconds(time.Since(w.start))
	return wall, max(wall-stolenSeconds(w.ticks, readTicks()), 0)
}

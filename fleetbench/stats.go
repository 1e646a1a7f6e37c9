package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 needs at least 1,000 samples, a p50 at least 20.
const minBeyond = 10

// dist is a latency (or any other) distribution in which every failed
// operation counts as +Inf, so failures can only push percentiles up.
type dist struct {
	vals   []float64 // finite samples, sorted by seal
	failed int       // +Inf samples
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v) }
func (d *dist) fail()         { d.failed++ }
func (d *dist) n() int        { return len(d.vals) + d.failed }
func (d *dist) seal() *dist   { slices.Sort(d.vals); return d }

// quantile returns the nearest-rank q-quantile (0 < q < 1) of the
// sealed distribution and how many samples lie beyond it. ok is false
// when fewer than minBeyond samples lie beyond it: the percentile is
// withheld rather than read off a handful of points.
func (d *dist) quantile(q float64) (v float64, beyond int, ok bool) {
	n := d.n()
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	if beyond < minBeyond {
		return 0, beyond, false
	}
	if rank > len(d.vals) {
		return math.Inf(1), beyond, true
	}
	return d.vals[rank-1], beyond, true
}

// distOf builds a sealed distribution from samples in which a failed
// operation is +Inf.
func distOf(xs []float64) *dist {
	d := &dist{}
	for _, x := range xs {
		if math.IsInf(x, 1) {
			d.fail()
		} else {
			d.add(x)
		}
	}
	return d.seal()
}

// Window sizing for the reported percentiles: a run's samples are cut
// into up to maxWindows contiguous windows of at least windowMin
// samples each, so every window can carry a p99 with minBeyond
// samples beyond it.
const (
	maxWindows = 10
	windowMin  = 1000
)

func windowsFor(n int) int { return max(1, min(maxWindows, n/windowMin)) }

// windowQuantile is the median, over windowsFor(len(xs)) contiguous
// windows of xs (samples in send order, failures as +Inf), of each
// window's q-quantile. A burst of interference from outside the fleet
// (another tenant on the machine) then moves one or two windows, not
// the reported value. ok is false when any window withholds the
// quantile; beyond is the smallest count beyond it in any window.
func windowQuantile(xs []float64, q float64) (v float64, k, beyond int, ok bool) {
	k = windowsFor(len(xs))
	vals := make([]float64, 0, k)
	beyond = len(xs)
	for w := 0; w < k; w++ {
		x, b, wok := distOf(xs[w*len(xs)/k : (w+1)*len(xs)/k]).quantile(q)
		beyond = min(beyond, b)
		if !wok {
			return 0, k, beyond, false
		}
		vals = append(vals, x)
	}
	return median(vals), k, beyond, true
}

// pct is 100·part/whole, 0 for an empty whole.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// median of a small set of repeated measurements (set-up times).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

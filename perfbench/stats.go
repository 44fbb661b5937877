package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for an empty sample and never interpolates, so every reported
// percentile is a value that was actually measured.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// window is one slice of a timed phase: its per-item wall times in ns, the
// input nodes those items scheduled, the seconds they took and, offline,
// the process's peak RSS in bytes over the slice.
type window struct {
	times   []float64
	nodes   int64
	wall    float64
	peakRSS int64
}

// setWindowMetrics sets the closed-loop end-to-end metrics of serve, each
// the median over windows of its value within a window, so a slowdown of
// the host during a minority of the windows does not move them. p90_ms and
// items per second are printed beside them, not gated.
func setWindowMetrics(r *report, ws []window) {
	var nodes, items, p50, p90 []float64
	n := 0
	for _, w := range ws {
		nodes = append(nodes, float64(w.nodes)/w.wall)
		items = append(items, float64(len(w.times))/w.wall)
		p50 = append(p50, ms(median(w.times)))
		p90 = append(p90, ms(percentile(w.times, 90)))
		n += len(w.times)
	}
	r.set("nodes_per_s", median(nodes), "nodes/s", n)
	r.note("items_per_s", median(items), "1/s", n)
	r.set("p50_ms", median(p50), "ms", n)
	r.note("p90_ms", median(p90), "ms", n)
}

// typicalPassNs is the wall time of a pass over the same items built from
// each item's median time over the passes ws, in ns. A slowdown of the
// host hits some items of some passes; taken per item, the median drops
// it even when it spans most of one pass.
func typicalPassNs(ws []window) float64 {
	var total float64
	ts := make([]float64, len(ws))
	for i := range ws[0].times {
		for p, w := range ws {
			ts[p] = w.times[i]
		}
		total += median(ts)
	}
	return total
}

// setPassMetrics sets the offline end-to-end metrics from passes over the
// same items: p50_ms is the typical pass's wall time and nodes_per_s the
// nodes of a pass over it. The per-tree median of the batch is not gated:
// it lands on a sub-millisecond TREES instance and times call overhead,
// not scheduling.
func setPassMetrics(r *report, ws []window) {
	pass := typicalPassNs(ws)
	n := len(ws) * len(ws[0].times)
	r.set("nodes_per_s", float64(ws[0].nodes)/(pass/1e9), "nodes/s", n)
	r.note("items_per_s", float64(len(ws[0].times))/(pass/1e9), "1/s", n)
	r.set("p50_ms", ms(pass), "ms", n)
}

package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// poissonDues draws the due times of a Poisson arrival process at rate
// requests per second over window.
func poissonDues(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var dues []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return dues
		}
		dues = append(dues, d)
	}
}

// sent is the generator's record of one request, in times relative to the
// start of its phase. start is when a connection took it; latency is
// counted from due, so a request stuck behind a stalled one is charged
// the stall.
type sent struct {
	due, start, firstByte, end time.Duration
	err                        error
}

func (s sent) latency() time.Duration { return s.end - s.due }
func (s sent) service() time.Duration { return s.end - s.start }
func (s sent) ttfb() time.Duration    { return s.firstByte - s.due }
func (s sent) late() time.Duration    { return s.start - s.due }

// runLoop sends requests over conns connections. Requests are taken in
// order; each waits for its due time, or is sent at once if it is
// overdue. With every due at zero it is a closed loop of conns clients.
// A positive stopAfter ends the phase early: no request is taken once it
// has passed. do sends request i and returns when its first response
// byte arrived. runLoop returns the records of the requests taken, once
// every one has completed.
func runLoop(dues []time.Duration, conns int, stopAfter time.Duration, do func(i int) (time.Time, error)) []sent {
	origin := time.Now()
	recs := make([]sent, len(dues))
	// Claiming and the stop check happen under one lock, so the requests
	// taken are exactly recs[:next].
	var mu sync.Mutex
	next := 0
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(dues) || (stopAfter > 0 && time.Since(origin) >= stopAfter) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := claim(); ok; i, ok = claim() {
				if wait := dues[i] - time.Since(origin); wait > 0 {
					time.Sleep(wait)
				}
				rec := sent{due: dues[i], start: time.Since(origin)}
				fb, err := do(i)
				rec.end = time.Since(origin)
				rec.firstByte = fb.Sub(origin)
				rec.err = err
				recs[i] = rec
			}
		}()
	}
	wg.Wait()
	return recs[:next]
}

// backlog is the number of requests that were due but not yet taken at
// the moment each request was taken (itself excluded), in request order.
func backlog(recs []sent) []int {
	dues := make([]time.Duration, len(recs))
	for i, r := range recs {
		dues[i] = r.due
	}
	out := make([]int, len(recs))
	for i, r := range recs {
		due := sort.Search(len(dues), func(j int) bool { return dues[j] > r.start })
		if b := due - i - 1; b > 0 {
			out[i] = b
		}
	}
	return out
}

// backlogGrows reports whether the backlog rose over the phase: the mean
// of its second half exceeds that of its first half by more than one
// request.
func backlogGrows(b []int) bool {
	if len(b) < 2 {
		return false
	}
	half := len(b) / 2
	var a, z float64
	for _, v := range b[:half] {
		a += float64(v)
	}
	for _, v := range b[half:] {
		z += float64(v)
	}
	return z/float64(len(b)-half) > a/float64(half)+1
}

// phaseStats summarises one load phase.
type phaseStats struct {
	latencies, ttfbs, lates, services []float64 // ns, successful requests
	backlogMax                        int
	grows                             bool
	failed                            int
}

func summarise(recs []sent) phaseStats {
	var ps phaseStats
	for _, r := range recs {
		if r.err != nil {
			ps.failed++
			continue
		}
		ps.latencies = append(ps.latencies, float64(r.latency()))
		ps.ttfbs = append(ps.ttfbs, float64(r.ttfb()))
		ps.lates = append(ps.lates, float64(r.late()))
		ps.services = append(ps.services, float64(r.service()))
	}
	b := backlog(recs)
	for _, v := range b {
		if v > ps.backlogMax {
			ps.backlogMax = v
		}
	}
	ps.grows = backlogGrows(b)
	return ps
}

// meets reports whether a phase satisfies the serving limit: no failed
// request, a p99 latency within limit and no growing backlog.
func (ps phaseStats) meets(limit time.Duration) bool {
	return ps.failed == 0 && len(ps.latencies) > 0 &&
		percentile(ps.latencies, 99) <= float64(limit) && !ps.grows
}

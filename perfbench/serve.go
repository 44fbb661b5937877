package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/randtree"
	"repro/internal/schedd"
	"repro/internal/tree"
)

// Serve workload settings. The daemon runs with nproc engines of
// serveWorkers workers each and a budget of serveBudgetUnits times the
// admission cost of the largest tree; requests queue for admission up to
// serveWaitMS instead of being refused.
const (
	serveEngines = 2
	// serveWorkers keeps each engine on one CPU, as batch does: the
	// automatic driver shards a large request over both CPUs, which the
	// other engine and the load generator need too.
	serveWorkers     = 1
	serveConns       = 2
	serveBudgetUnits = 4
	serveWaitMS      = 10000
	// closedConns is the closed loop's client count. With two, the
	// client and two busy engines share two CPUs: over three runs of one
	// seed closed-loop nodes/s spread 0.15 (IQR over median) and p50 0.09,
	// against 0.07 and 0.04 over six runs with one client.
	closedConns = 1
	// Rates of the two open-loop phases, requests per second; together
	// they are the ladder max_rate_rps is read from. Two clients sending
	// back to back sustained 84-91 req/s of this request mix over four
	// seeds on a 2-vCPU host, median 85: low is about half of that and
	// high about 88%.
	serveLowRate  = 43.0
	serveHighRate = 75.0
	// serveLimit is the p99 latency a ladder rung must meet. A 100k-node
	// request alone takes about 300 ms, and at half load one in a hundred
	// queues behind another large one.
	serveLimit = time.Second
)

// serveSizes is the request-size deck: per 50 requests, 40 of 2k nodes,
// 8 of 20k and 2 of 100k, so the median request is a small one and p90 a
// 20k one, each well inside its class. poolTrees is how many distinct
// trees of each size the pool holds.
var serveSizes = []struct{ nodes, perDeck, poolTrees int }{
	{2000, 40, 96},
	{20000, 8, 16},
	{serveMaxNodes, 2, 8},
}

const serveMaxNodes = 100000

// The pool's trees of serveFixedNodes nodes or more are the same for
// every workload seed: each size is drawn from a source seeded with that
// size. They carry 80% of the nodes and most of the engine time, and one
// 100k tree differs from the next by up to 4× in RecExpand time, so drawn
// from the workload seed the 100k trees moved closed-loop throughput by a
// fifth from seed to seed; with the 20k trees seeded too, io_vs_lb ranged
// from 4.6 to 5.3 over twelve seeds.
const serveFixedNodes = 20000

// poolEntry is one served instance at one bound: mid entries ask for the
// mid bound ("mid":true, the daemon runs the analysis), the others send an
// explicit m.
type poolEntry struct {
	item     *offItem // tree, bound, ground truth and schedule
	treeJSON []byte
	treeText []byte
	mid      bool
	want     []byte  // the expected response stream
	weight   float64 // the share of requests that draw this entry
}

// serveReq is one planned request.
type serveReq struct {
	entry       *poolEntry
	name        string
	key         string
	text, reuse bool
}

// servePool builds the pool of instances and their expected streams. The
// trees are drawn in order from the seed; their analysis and ground truth
// run on one sequential engine per CPU.
func servePool(seed int64) ([]*poolEntry, [][]int, error) {
	rng := rand.New(rand.NewSource(seed))
	var trees []*tree.Tree
	var pool []*poolEntry
	bySize := make([][]int, len(serveSizes))
	for si, sz := range serveSizes {
		draw := rng
		if sz.nodes >= serveFixedNodes {
			draw = rand.New(rand.NewSource(int64(sz.nodes)))
		}
		for k := 0; k < sz.poolTrees; k++ {
			trees = append(trees, randtree.Synth(sz.nodes, draw))
			// Entry 2i asks for the mid bound, entry 2i+1 sends an m.
			for _, mid := range []bool{true, false} {
				bySize[si] = append(bySize[si], len(pool))
				pool = append(pool, &poolEntry{
					item:   &offItem{name: fmt.Sprintf("pool-%d-%d", sz.nodes, k)},
					mid:    mid,
					weight: float64(sz.perDeck) / float64(2*sz.poolTrees),
				})
			}
		}
	}
	err := parallelEach(len(trees), func() func(i int) error {
		rn := core.NewRunner(1)
		return func(i int) error { return poolTree(rn, trees[i], pool[2*i:2*i+2]) }
	})
	if err != nil {
		return nil, nil, err
	}
	return pool, bySize, nil
}

// poolTree fills the two pool entries of t: its bodies, bounds and
// expected streams.
func poolTree(rn *core.Runner, t *tree.Tree, entries []*poolEntry) error {
	in := core.NewInstance(entries[0].item.name, t)
	js, err := json.Marshal(t)
	if err != nil {
		return err
	}
	var txt bytes.Buffer
	if err := t.WriteText(&txt); err != nil {
		return err
	}
	for _, e := range entries {
		M := in.M(core.BoundMid)
		if !e.mid {
			// A tighter explicit bound: a quarter of the way from LB to
			// the in-core peak.
			M = in.LB + (in.Peak-in.LB)/4
		}
		var want bytes.Buffer
		var sched tree.Schedule
		var res *core.Result
		var runErr error
		if _, err := tree.WriteSchedule(&want, func(yield func(seg []int) bool) bool {
			res, runErr = rn.RunStream(core.RecExpand, t, M, func(seg []int) bool {
				sched = append(sched, seg...)
				return yield(seg)
			})
			return runErr == nil
		}); err != nil || runErr != nil {
			return fmt.Errorf("%s: ground truth stream: %v %v", in.Name, err, runErr)
		}
		if _, err := verifySchedule(t, M, sched, res.IO, res.Peak); err != nil {
			return fmt.Errorf("%s: %w", in.Name, err)
		}
		d, err := scheduleDigest(sched)
		if err != nil {
			return err
		}
		// core.Result does not report expansions.
		e.item.t, e.item.M, e.item.gap = t, M, in.Peak-M
		e.item.want = outcome{IO: res.IO, Peak: res.Peak, Expansions: -1, Stream: d}
		e.item.sched = sched
		e.treeJSON, e.treeText, e.want = js, txt.Bytes(), want.Bytes()
	}
	return nil
}

// planRequests draws n requests: sizes from shuffled decks, then per
// request the pool entry, JSON or text (one in five), and an idempotency
// key for about a quarter; a third of keyed requests re-send the key of
// an earlier keyed request of the same entry, reusing its journal entry.
// Each size's entries are dealt in rounds, every entry once per round:
// shuffled for the seeded sizes, in pool order for the fixed 100k trees,
// so deck k asks for 100k tree k mod 8 at both its bounds. Drawn at
// random, which two 100k entries a deck held moved its throughput between
// 330k and 960k nodes/s within one run, and the median over decks spread
// 0.18 (IQR over median) over ten seeds.
func planRequests(rng *rand.Rand, pool []*poolEntry, bySize [][]int, n int, phase string) []*serveReq {
	var deck []int
	for si, sz := range serveSizes {
		for k := 0; k < sz.perDeck; k++ {
			deck = append(deck, si)
		}
	}
	rounds := make([][]int, len(bySize))
	lastKey := make(map[*poolEntry]string)
	out := make([]*serveReq, 0, n)
	for len(out) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, si := range deck {
			if len(out) == n {
				break
			}
			if len(rounds[si]) == 0 {
				r := append([]int(nil), bySize[si]...)
				if serveSizes[si].nodes != serveMaxNodes {
					rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
				}
				rounds[si] = r
			}
			e := pool[rounds[si][0]]
			rounds[si] = rounds[si][1:]
			r := &serveReq{entry: e, name: fmt.Sprintf("%s-%d", phase, len(out)), text: rng.Intn(5) == 0}
			if rng.Intn(4) == 0 {
				if k, ok := lastKey[e]; ok && rng.Intn(3) == 0 {
					r.key, r.reuse = k, true
				} else {
					r.key = fmt.Sprintf("key-%s-%d", phase, len(out))
					lastKey[e] = r.key
				}
			}
			out = append(out, r)
		}
	}
	return out
}

// render builds the request's URL path, content type and body. Bodies are
// rendered when sent, not planned ahead, so a long closed loop holds no
// more than the requests in flight.
func (r *serveReq) render() (path, contentType string, body []byte) {
	e := r.entry
	if r.text {
		q := url.Values{}
		if e.mid {
			q.Set("mid", "true")
		} else {
			q.Set("m", strconv.FormatInt(e.item.M, 10))
		}
		q.Set("wait_ms", strconv.Itoa(serveWaitMS))
		q.Set("name", r.name)
		if r.key != "" {
			q.Set("idempotency_key", r.key)
		}
		return "/schedule?" + q.Encode(), "text/plain", e.treeText
	}
	var b bytes.Buffer
	b.WriteString(`{"tree":`)
	b.Write(e.treeJSON)
	if e.mid {
		b.WriteString(`,"mid":true`)
	} else {
		fmt.Fprintf(&b, `,"m":%d`, e.item.M)
	}
	fmt.Fprintf(&b, `,"wait_ms":%d,"name":%q`, serveWaitMS, r.name)
	if r.key != "" {
		fmt.Fprintf(&b, `,"idempotency_key":%q`, r.key)
	}
	b.WriteString("}")
	return "/schedule", "application/json", b.Bytes()
}

// httpRequest is the request as the daemon's handler receives it.
func (q *serveReq) httpRequest() *http.Request {
	path, ct, body := q.render()
	hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	hr.Header.Set("Content-Type", ct)
	return hr
}

// serveSetup builds the pool and starts a ready daemon.
func serveSetup(o options) ([]*poolEntry, [][]int, *daemon, error) {
	pool, bySize, err := servePool(o.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := startDaemon(o.schedd,
		"-budget", strconv.FormatInt(serveBudgetUnits*schedd.EstimateCost(serveMaxNodes), 10),
		"-engines", strconv.Itoa(serveEngines),
		"-workers", strconv.Itoa(serveWorkers))
	return pool, bySize, d, err
}

// loadPhase runs one phase against the daemon, gating every response's
// bytes and reported I/O. Traced phases record a span tree per request.
func loadPhase(ctx context.Context, d *daemon, reqs []*serveReq, dues []time.Duration, conns int, stopAfter time.Duration, r *report, tr *tracer) []sent {
	bufs := make(chan []byte, conns)
	for i := 0; i < conns; i++ {
		bufs <- nil
	}
	recs := runLoop(dues, conns, stopAfter, func(i int) (time.Time, error) {
		q := reqs[i]
		path, ct, reqBody := q.render()
		buf := <-bufs
		first, body, io, err := d.post(ctx, d.url(path), ct, reqBody, buf)
		if err == nil {
			err = checkBody(q.entry.want, body)
		}
		if err == nil {
			var got int64
			got, err = strconv.ParseInt(io, 10, 64)
			if err == nil && got != q.entry.item.want.IO {
				err = fmt.Errorf("X-Schedd-Io %d, want %d", got, q.entry.item.want.IO)
			}
		}
		bufs <- body
		return first, err
	})
	for i, rec := range recs {
		r.attempt(reqs[i].name, rec.err)
	}
	if tr != nil {
		names := make([]string, len(recs))
		for i := range recs {
			names[i] = reqs[i].name
		}
		d.awaitLogs(names)
		for i, rec := range recs {
			if rec.err != nil {
				continue
			}
			name := reqs[i].name
			root := tr.add("request", name, -1, rec.due, rec.end)
			tr.add("loadgen.late", name, root, rec.due, rec.start)
			if ll, ok := d.logFor(name); ok {
				// The daemon logs durations, not instants: lay them end
				// to end from the moment the request was sent.
				at := rec.start
				for _, p := range []struct {
					name string
					ms   int64
				}{{"schedd.queue_wait", ll.queueWait}, {"schedd.engine_wait", ll.engineWait}, {"schedd.stream", ll.stream}} {
					end := at + time.Duration(p.ms)*time.Millisecond
					tr.add(p.name, name, root, at, end)
					at = end
				}
			}
		}
	}
	return recs
}

// runServe is the serve workload.
func runServe(o options, r *report, tr *tracer) error {
	var pool []*poolEntry
	var bySize [][]int
	var d *daemon
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		pool, bySize, d, err = serveSetup(o)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, since(start))
	}
	defer d.stop()
	// Whatever the daemon does, the load phases end within this.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2*o.seconds+60)*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(o.seed ^ 0x5e7e))
	phase := func(name string, rate float64, window time.Duration, traced *tracer) ([]sent, []*serveReq) {
		dues := poissonDues(rng, rate, window)
		reqs := planRequests(rng, pool, bySize, len(dues), name)
		recs := loadPhase(ctx, d, reqs, dues, serveConns, 0, r, traced)
		return recs, reqs[:len(recs)]
	}
	secs := func(f float64) time.Duration { return time.Duration(f * o.seconds * float64(time.Second)) }

	before, err := d.statz()
	if err != nil {
		return err
	}
	cpu0, err := cpuMillis(d.pid)
	if err != nil {
		return err
	}
	if tr != nil {
		return tracedServe(o, d, before, cpu0, phase, secs, r, tr)
	}

	// Closed loop: closedConns clients back to back for half the run,
	// planned for more requests than any host can serve in it. It runs
	// first, so the daemon's peak RSS read after it does not depend on
	// how the open-loop arrivals happened to overlap large requests.
	closedN := int(1000 * o.seconds)
	closedReqs := planRequests(rng, pool, bySize, closedN, "closed")
	closedRecs := loadPhase(ctx, d, closedReqs, make([]time.Duration, closedN), closedConns, secs(0.5), r, nil)
	rss, err := peakRSSBytes(d.pid)
	if err != nil {
		return err
	}
	lowRecs, _ := phase("low", serveLowRate, secs(0.2), nil)
	highRecs, _ := phase("high", serveHighRate, secs(0.3), nil)
	low, high := summarise(lowRecs), summarise(highRecs)
	r.set("setup_s", median(setups), "s", len(setups))
	ws := closedWindows(closedRecs, closedReqs)
	var rates []string
	for _, w := range ws {
		rates = append(rates, fmt.Sprintf("%.0f", float64(w.nodes)/w.wall))
	}
	r.info("# closed-loop window nodes/s: %s", strings.Join(rates, " "))
	setWindowMetrics(r, ws)
	r.set("peak_rss_mib", float64(rss)/(1<<20), "MiB", 1)
	// Each pool entry counts once, weighted by how often the deck draws
	// it, so the ratio follows the request mix and not how many requests
	// the run fitted in. Every served X-Schedd-Io was gated to equal its
	// entry's ground truth.
	r.set("io_vs_lb", poolIOvsLB(pool), "ratio", len(pool))
	for _, p := range []struct {
		name string
		ps   phaseStats
	}{{"low", low}, {"high", high}} {
		r.note("lat_p50_ms."+p.name, ms(median(p.ps.latencies)), "ms", len(p.ps.latencies))
		r.note("lat_p99_ms."+p.name, ms(percentile(p.ps.latencies, 99)), "ms", len(p.ps.latencies))
	}
	r.note("ttfb_p50_ms.high", ms(median(high.ttfbs)), "ms", len(high.ttfbs))
	maxRate := 0.0
	for _, rung := range []struct {
		rate float64
		ps   phaseStats
	}{{serveLowRate, low}, {serveHighRate, high}} {
		if rung.ps.meets(serveLimit) {
			maxRate = rung.rate
		}
	}
	r.note("max_rate_rps", maxRate, "req/s", 2)
	r.note("loadgen.late_p99_ms.high", ms(percentile(high.lates, 99)), "ms", len(high.lates))
	r.note("loadgen.backlog_max.high", float64(high.backlogMax), "count", len(highRecs))
	return nil
}

// poolIOvsLB is Σ IO / Σ (Peak − M) over the pool's ground truth, each
// entry weighted by the share of requests that draw it.
func poolIOvsLB(pool []*poolEntry) float64 {
	var io, gap float64
	for _, e := range pool {
		io += e.weight * float64(e.item.want.IO)
		gap += e.weight * float64(e.item.gap)
	}
	return io / gap
}

// closedWindows splits the closed loop into windows of one deck each:
// consecutive runs of deckSize requests, which hold exactly the deck's
// mix of sizes, so windows differ only in the trees drawn and the host's
// speed. A trailing partial deck is dropped unless it is all there is. A
// window's wall time runs from its first send to its last response.
func closedWindows(recs []sent, reqs []*serveReq) []window {
	size := deckSize()
	if len(recs) < size {
		size = len(recs)
	}
	var ws []window
	for lo := 0; size > 0 && lo+size <= len(recs); lo += size {
		var win window
		first, last := time.Duration(math.MaxInt64), time.Duration(0)
		for i := lo; i < lo+size; i++ {
			first, last = min(first, recs[i].start), max(last, recs[i].end)
			if recs[i].err == nil {
				win.times = append(win.times, float64(recs[i].service()))
				win.nodes += int64(reqs[i].entry.item.t.N())
			}
		}
		if win.wall = (last - first).Seconds(); len(win.times) > 0 && win.wall > 0 {
			ws = append(ws, win)
		}
	}
	return ws
}

// deckSize is the number of requests in one deck of serveSizes.
func deckSize() int {
	n := 0
	for _, sz := range serveSizes {
		n += sz.perDeck
	}
	return n
}

// phaseFunc runs one open-loop phase and returns its records and requests.
type phaseFunc func(name string, rate float64, window time.Duration, traced *tracer) ([]sent, []*serveReq)

// tracedServe runs the high-rate phase untraced and then traced, reads the
// daemon's counters around them, and spends the rest of the run timing the
// in-process layer calls on the pool's requests.
func tracedServe(o options, d *daemon, before statz, cpu0 float64, phase phaseFunc, secs func(float64) time.Duration, r *report, tr *tracer) error {
	plainRecs, _ := phase("plain", serveHighRate, secs(0.25), nil)
	recs, reqs := phase("traced", serveHighRate, secs(0.25), tr)
	after, err := d.statz()
	if err != nil {
		return err
	}
	cpu1, err := cpuMillis(d.pid)
	if err != nil {
		return err
	}
	plain, traced := summarise(plainRecs), summarise(recs)
	var queue, engine, stream []float64
	for _, q := range reqs {
		if ll, ok := d.logFor(q.name); ok {
			queue = append(queue, float64(ll.queueWait))
			engine = append(engine, float64(ll.engineWait))
			stream = append(stream, float64(ll.stream))
		}
	}
	served := after.Serving.Served - before.Serving.Served
	r.set("schedd.queue_wait_ms.p99", percentile(queue, 99), "ms", len(queue))
	r.set("schedd.engine_wait_ms.p99", percentile(engine, 99), "ms", len(engine))
	r.set("schedd.stream_ms.p50", median(stream), "ms", len(stream))
	r.set("schedd.granted", float64(after.Broker.Granted-before.Broker.Granted), "count", 0)
	r.set("schedd.rejected", float64(after.Broker.Rejected-before.Broker.Rejected), "count", 0)
	r.set("schedd.peak_used_mib", float64(after.Broker.PeakUsed)/(1<<20), "MiB", 0)
	r.set("schedd.journal_reused", float64(after.Journal.Reused-before.Journal.Reused), "count", 0)
	r.set("schedd.resumed", float64(after.Serving.Resumed-before.Serving.Resumed), "count", 0)
	cpuPerReq := 0.0
	if served > 0 {
		cpuPerReq = (cpu1 - cpu0) / float64(served)
	}
	r.set("daemon.cpu_ms_per_req", cpuPerReq, "ms", int(served))
	r.set("loadgen.late_p99_ms", ms(percentile(traced.lates, 99)), "ms", len(traced.lates))
	r.set("loadgen.backlog_max", float64(traced.backlogMax), "count", len(recs))
	// Service time, from send to the trailer: latency from due time at the
	// high rate is mostly the generator's queue, which swings with where
	// the arrivals bunch up.
	untraced := median(plain.services)
	r.set("trace.overhead_frac", (median(traced.services)-untraced)/untraced, "ratio", len(traced.services))

	// Request-level attribution: how much of each request's latency the
	// generator's lateness and the daemon's logged phases account for.
	reqShare := tr.breakdown("request")
	for _, name := range []string{"loadgen.late", "schedd.queue_wait", "schedd.engine_wait", "schedd.stream"} {
		r.note("request_share."+name, reqShare.share[name], "ratio", 0)
	}
	r.set("trace.unattributed_frac", reqShare.unattributed, "ratio", 0)

	// In-process layer calls on the same request mix.
	p := newProber(offlineSpec{workers: serveWorkers})
	jdir := filepath.Join(o.workdir, "journal-probe")
	j, err := schedd.NewJournal(jdir)
	if err != nil {
		return err
	}
	probed := make(map[*poolEntry]bool)
	var parses, analyses, journals int
	start := time.Now()
	for pass := 0; pass == 0 || since(start) < o.seconds*0.4; pass++ {
		for _, q := range reqs {
			err := probeRequest(tr, p, j, q, !probed[q.entry], &parses, &analyses, &journals)
			probed[q.entry] = true
			r.attempt(q.name+" probes", err)
			if pass > 0 && since(start) >= o.seconds*0.4 {
				break
			}
		}
	}
	p.report(r, tr)
	setShares(r, tr.breakdown("layers"))
	r.set("schedd.parse_ms", perItemMS(tr, "schedd.parse", parses), "ms", parses)
	r.set("schedd.journal_ms", perItemMS(tr, "schedd.journal", journals), "ms", journals)
	r.set("core.analysis_ms", perItemMS(tr, "core.analysis", analyses), "ms", analyses)
	return nil
}

// probeRequest times one request's in-process layer calls: parse, the
// mid-bound analysis, the journal writes of a keyed request, then the
// engine layers on its instance.
func probeRequest(tr *tracer, p *prober, j *schedd.Journal, q *serveReq, count bool, parses, analyses, journals *int) error {
	root := tr.begin("layers", q.name, -1)
	defer tr.end(root)
	hr := q.httpRequest()
	s := tr.begin("schedd.parse", q.name, root)
	_, t, err := schedd.ParseRequest(hr, 1<<30)
	tr.end(s)
	if err != nil {
		return err
	}
	*parses++
	if t.N() != q.entry.item.t.N() {
		return fmt.Errorf("parsed %d nodes, want %d", t.N(), q.entry.item.t.N())
	}
	it := q.entry.item
	if q.entry.mid {
		s = tr.begin("core.analysis", q.name, root)
		in := core.NewInstance(q.name, t)
		tr.end(s)
		*analyses++
		if in.M(core.BoundMid) != it.M {
			return fmt.Errorf("analysis bound %d, want %d", in.M(core.BoundMid), it.M)
		}
	}
	if q.key != "" {
		s = tr.begin("schedd.journal", q.name, root)
		fp := schedd.ReqFingerprint{TreeHash: ckpt.HashTree(t.Parents(), t.Weights()), N: int64(t.N()), M: it.M, Algorithm: string(core.RecExpand)}
		b, err := j.Begin(context.Background(), q.key+"-probe"+strconv.Itoa(*journals), fp)
		if err == nil {
			err = b.Commit(&schedd.Entry{FP: fp, Committed: int64(t.N()), Complete: true})
			b.Close()
		}
		tr.end(s)
		if err != nil {
			return err
		}
		*journals++
	}
	return p.layers(tr, it, root, count)
}

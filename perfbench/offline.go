package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/experiments"
	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// offlineSpec describes one offline workload.
type offlineSpec struct {
	// inputs builds the workload's trees from the seed.
	inputs func(seed int64) ([]*offItem, error)
	// budget is the CacheBudget of the timed path and the profile-cache
	// probes; 0 is unbounded.
	budget int64
	// streamed selects the timed path: RecExpandStream encoded by
	// tree.WriteSchedule, instead of the materialising core.Runner.Run.
	streamed bool
	// analysis probes core.NewInstance; off where its unbounded Liu pass
	// would need more memory than the workload's budget allows.
	analysis bool
	// workers is the engine's Workers setting on the timed path and the
	// streamed probe; 0 is the automatic parallel driver.
	workers int
}

// offItem is one input tree with its bound and ground truth.
type offItem struct {
	name  string
	t     *tree.Tree
	M     int64
	gap   int64 // Peak − M, the I/O lower bound at M
	want  outcome
	sched tree.Schedule
}

const (
	batchSynthTrees = 32
	batchMinNodes   = 3000
	batchMaxNodes   = 300000
	hugeNodes       = 1000000
	hugeBudget      = 64 << 20
)

// The batch's SYNTH trees of batchFixedNodes nodes or more are the same
// for every workload seed, drawn in stratum order from batchLargeSeed.
// Those 12 strata carry about 90% of a pass's time, and the RecExpand time
// of one tree differs from the next of its size by up to 3×: drawn from
// the seed, they moved the pass time by up to 23% between seeds.
const (
	batchFixedNodes = 50000
	batchLargeSeed  = 300000
)

// batch runs the sequential engine. On a 2-vCPU host the automatic
// driver shards the large trees over both CPUs, yet a pass took 10% longer
// than on one worker, and over eight runs of one seed its pass time spread
// 0.15 (IQR over median) against 0.07 sequential: two workers stall on
// whichever CPU the host takes away.
var batchSpec = offlineSpec{inputs: batchInputs, analysis: true, workers: 1}

var hugeSpec = offlineSpec{inputs: hugeInputs, budget: hugeBudget, streamed: true}

// batchSizes spreads batchSynthTrees sizes log-uniformly over
// [batchMinNodes, batchMaxNodes]: one tree per equal-width stratum of
// log n, at the stratum's geometric centre, so every seed schedules the
// same node count and only the tree shapes vary.
func batchSizes() []int {
	out := make([]int, batchSynthTrees)
	span := math.Log(float64(batchMaxNodes) / batchMinNodes)
	for i := range out {
		f := (float64(i) + 0.5) / batchSynthTrees
		out[i] = int(math.Round(batchMinNodes * math.Exp(f*span)))
	}
	return out
}

// batchSynth is the SYNTH part of the batch: the trees below
// batchFixedNodes drawn from the seed, the larger ones fixed.
func batchSynth(seed int64) []*tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	fixed := rand.New(rand.NewSource(batchLargeSeed))
	var out []*tree.Tree
	for _, n := range batchSizes() {
		draw := rng
		if n >= batchFixedNodes {
			draw = fixed
		}
		out = append(out, randtree.Synth(n, draw))
	}
	return out
}

// batchInputs is the seeded SYNTH batch plus the paper's TREES set.
func batchInputs(seed int64) ([]*offItem, error) {
	var items []*offItem
	for i, t := range batchSynth(seed) {
		in := core.NewInstance(fmt.Sprintf("synth-%d-%d", i, t.N()), t)
		items = append(items, instanceItem(in))
	}
	trees, err := experiments.Trees(experiments.PaperTrees)
	if err != nil {
		return nil, err
	}
	for _, in := range trees {
		items = append(items, instanceItem(in))
	}
	return items, nil
}

// hugeInputs is the staircase forest. It is deterministic: the seed does
// not change it.
func hugeInputs(seed int64) ([]*offItem, error) {
	return []*offItem{instanceItem(experiments.Huge(hugeNodes, seed))}, nil
}

func instanceItem(in *core.Instance) *offItem {
	M := in.M(core.BoundMid)
	return &offItem{name: in.Name, t: in.Tree, M: M, gap: in.Peak - M}
}

// offlineSetup builds the inputs and their ground truth, on one
// sequential engine per CPU.
func offlineSetup(spec offlineSpec, seed int64) ([]*offItem, error) {
	items, err := spec.inputs(seed)
	if err != nil {
		return nil, err
	}
	err = parallelEach(len(items), func() func(i int) error {
		e := expand.NewEngine()
		return func(i int) error {
			it := items[i]
			var err error
			if it.want, it.sched, err = groundTruth(e, it.t, it.M, spec.budget); err != nil {
				return fmt.Errorf("%s: %w", it.name, err)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}

// parallelEach runs work(i) for every i in [0, n) on one goroutine per
// CPU. newWorker makes each goroutine's work function, so a worker can
// own an engine. It returns the error of the lowest failing index.
func parallelEach(n int, newWorker func() func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := newWorker()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = work(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// offlineRunner times the workload's end-to-end call on one item.
type offlineRunner struct {
	spec offlineSpec
	rn   *core.Runner
	eng  *expand.Engine
}

func newOfflineRunner(spec offlineSpec) *offlineRunner {
	return &offlineRunner{spec: spec, rn: core.NewRunner(spec.workers), eng: expand.NewEngine()}
}

// run schedules one item through the workload's public path and returns
// the wall time of the call and what it produced. The gate's digest of a
// materialised schedule is taken after the clock stops.
func (w *offlineRunner) run(it *offItem) (time.Duration, outcome, error) {
	if w.spec.streamed {
		dw := newDigestWriter()
		var res *expand.Result
		var runErr error
		start := time.Now()
		_, err := tree.WriteSchedule(dw, func(yield func(seg []int) bool) bool {
			res, runErr = w.eng.RecExpandStream(it.t, it.M, expand.Options{MaxPerNode: 2, Workers: w.spec.workers, CacheBudget: w.spec.budget}, yield)
			return runErr == nil
		})
		d := time.Since(start)
		if runErr != nil {
			return d, outcome{}, runErr
		}
		if err != nil {
			return d, outcome{}, err
		}
		return d, outcome{IO: res.IO, Peak: res.SimulatedPeak, Expansions: res.Expansions, Stream: dw.digest()}, nil
	}
	start := time.Now()
	res, err := w.rn.Run(core.RecExpand, it.t, it.M)
	d := time.Since(start)
	if err != nil {
		return d, outcome{}, err
	}
	sd, err := scheduleDigest(res.Schedule)
	return d, outcome{IO: res.IO, Peak: res.Peak, Expansions: -1, Stream: sd}, err
}

// timedPasses runs whole passes over items until about seconds have gone
// (at least one pass), gating every result. Each pass is one window of
// per-item wall times. Every pass starts with the previous pass's garbage
// handed back to the OS and the high-water mark restarted, so each has
// its own peak RSS.
func (w *offlineRunner) timedPasses(items []*offItem, seconds float64, r *report) ([]window, error) {
	start := time.Now()
	var ws []window
	for len(ws) == 0 || since(start)+ws[len(ws)-1].wall/2 < seconds {
		debug.FreeOSMemory()
		resetPeakRSS()
		var win window
		for _, it := range items {
			d, got, err := w.run(it)
			if err == nil {
				err = it.want.check(got)
			}
			r.attempt(it.name, err)
			win.times = append(win.times, float64(d))
			win.nodes += int64(it.t.N())
			win.wall += d.Seconds()
		}
		var err error
		if win.peakRSS, err = peakRSSBytes(0); err != nil {
			return nil, err
		}
		ws = append(ws, win)
	}
	return ws, nil
}

// runOffline is the batch and huge-stream workloads.
func runOffline(o options, spec offlineSpec, r *report, tr *tracer) error {
	var items []*offItem
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		next, err := offlineSetup(spec, o.seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, since(start))
		if items != nil {
			// A rebuilt input set must reproduce the first one exactly.
			r.attempt("setup determinism", sameTruth(items, next))
		}
		items = next
	}
	var nodes, gap, io int64
	for _, it := range items {
		nodes += int64(it.t.N())
		gap += it.gap
		io += it.want.IO
	}
	r.info("# inputs: %d trees, %d nodes", len(items), nodes)
	if tr == nil {
		// Only the traced probes encode the materialised schedules; the
		// gate needs just their digests.
		for _, it := range items {
			it.sched = nil
		}
	}
	// The resident set the timed passes start from: the inputs and ground
	// truth the harness keeps.
	debug.FreeOSMemory()
	base, err := rssBytes(0)
	if err != nil {
		return err
	}

	w := newOfflineRunner(spec)
	if tr != nil {
		return tracedOffline(o, w, items, r, tr)
	}
	cpu0, err := cpuMillis(0)
	if err != nil {
		return err
	}
	start := time.Now()
	ws, err := w.timedPasses(items, o.seconds, r)
	if err != nil {
		return err
	}
	wall := since(start)
	cpu1, err := cpuMillis(0)
	if err != nil {
		return err
	}
	var peaks []float64
	var walls []string
	for _, win := range ws {
		peaks = append(peaks, float64(win.peakRSS)/(1<<20))
		walls = append(walls, fmt.Sprintf("%.3f", win.wall))
	}
	r.info("# pass wall times (s): %s", strings.Join(walls, " "))
	rss := median(peaks)
	r.set("setup_s", median(setups), "s", len(setups))
	setPassMetrics(r, ws)
	r.set("peak_rss_mib", rss, "MiB", len(peaks))
	r.note("rss_base_mib", float64(base)/(1<<20), "MiB", 1)
	r.note("rss_growth_mib", rss-float64(base)/(1<<20), "MiB", len(peaks))
	r.set("io_vs_lb", float64(io)/float64(gap), "ratio", len(items))
	var times []float64
	for _, win := range ws {
		times = append(times, win.times...)
	}
	r.note("cpu_per_wall", (cpu1-cpu0)/1e3/wall, "ratio", 1)
	r.note("run_p50_ms", ms(median(times)), "ms", len(times))
	r.note("run_p90_ms", ms(percentile(times, 90)), "ms", len(times))
	return nil
}

// sameTruth reports whether two setups produced identical inputs and
// ground truth.
func sameTruth(a, b []*offItem) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d inputs, then %d", len(a), len(b))
	}
	for i := range a {
		if a[i].name != b[i].name || a[i].M != b[i].M || a[i].want != b[i].want {
			return fmt.Errorf("input %d (%s) changed between setups", i, a[i].name)
		}
	}
	return nil
}

// tracedOffline spends a third of the run on untraced passes and the rest
// on traced ones: each item's end-to-end call in its own span, then one
// span per layer call on the same item.
func tracedOffline(o options, w *offlineRunner, items []*offItem, r *report, tr *tracer) error {
	var plainNs float64
	var plainNodes int64
	plain, err := w.timedPasses(items, o.seconds/3, r)
	if err != nil {
		return err
	}
	for _, win := range plain {
		plainNs += sum(win.times)
		plainNodes += win.nodes
	}
	p := newProber(w.spec)
	start := time.Now()
	var tracedNodes int64
	for pass := 0; pass == 0 || since(start) < o.seconds*2/3; pass++ {
		for _, it := range items {
			id := tr.begin("e2e", it.name, -1)
			_, got, err := w.run(it)
			tr.end(id)
			if err == nil {
				err = it.want.check(got)
			}
			r.attempt(it.name, err)
			tracedNodes += int64(it.t.N())
			r.attempt(it.name+" probes", p.probe(tr, it, pass == 0))
		}
	}
	untracedNs := plainNs / float64(plainNodes)
	tracedNs := float64(tr.total("e2e")) / float64(tracedNodes)
	p.report(r, tr)
	setShares(r, tr.breakdown("layers"))
	// The engine and encoder layers, timed separately on the same inputs,
	// stand in for the end-to-end call; what they leave of its time is
	// unattributed.
	model := tr.total("expand.stream")
	if w.spec.streamed {
		model += tr.total("tree.encode")
	}
	e2e := tr.total("e2e")
	r.note("trace.e2e_ms", perItemMS(tr, "e2e", p.items), "ms", p.items)
	r.note("trace.model_ms", ms(float64(model))/float64(p.items), "ms", p.items)
	r.set("trace.unattributed_frac", max(0, 1-float64(model)/float64(e2e)), "ratio", p.items)
	r.set("core.analysis_ms", perItemMS(tr, "core.analysis", p.analysed), "ms", p.analysed)
	r.set("trace.overhead_frac", (tracedNs-untracedNs)/untracedNs, "ratio", len(plain))
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "schedd.") || strings.HasPrefix(m.name, "daemon.") || strings.HasPrefix(m.name, "loadgen.") {
			r.set(m.name, 0, m.unit, 0)
		}
	}
	return nil
}

// prober times the calls into each module on one input, each in its own
// span under a "layers" root.
type prober struct {
	spec     offlineSpec
	eng      *expand.Engine
	sim      *memsim.Simulator
	buf      []int
	nodes    int64 // nodes probed, per-node normalisation
	items    int
	analysed int
	encoded  int64 // bytes encoded
	// per-pass counters: summed over the first pass of items only.
	remats, evictions, streamed, expansions int64
	peakResident                            int64
}

func newProber(spec offlineSpec) *prober {
	return &prober{spec: spec, eng: expand.NewEngine(), sim: memsim.NewSimulator()}
}

// probe times one offline item's layer calls under a "layers" root; count
// adds its counters to the per-pass totals.
func (p *prober) probe(tr *tracer, it *offItem, count bool) error {
	root := tr.begin("layers", it.name, -1)
	defer tr.end(root)
	if p.spec.analysis {
		s := tr.begin("core.analysis", it.name, root)
		in := core.NewInstance(it.name, it.t)
		tr.end(s)
		p.analysed++
		if in.M(core.BoundMid) != it.M {
			return fmt.Errorf("analysis bound %d, want %d", in.M(core.BoundMid), it.M)
		}
	}
	return p.layers(tr, it, root, count)
}

// layers times the profile cache, schedule walk, FiF simulation, streamed
// expansion and schedule encoding on it, each in a span under root.
func (p *prober) layers(tr *tracer, it *offItem, root int, count bool) error {
	t, rootNode := it.t, it.t.Root()
	s := tr.begin("liu.warm", it.name, root)
	c := liu.NewProfileCacheOpts(t, liu.CacheOptions{MaxResidentBytes: p.spec.budget})
	c.Peak(rootNode)
	tr.end(s)

	s = tr.begin("liu.iter", it.name, root)
	iter := c.ScheduleIter(rootNode)
	p.buf = p.buf[:0]
	for seg, ok := iter.Next(); ok; seg, ok = iter.Next() {
		p.buf = append(p.buf, seg...)
	}
	tr.end(s)
	if len(p.buf) != t.N() {
		return fmt.Errorf("liu schedule has %d ids, want %d", len(p.buf), t.N())
	}

	s = tr.begin("memsim.fif", it.name, root)
	_, _, err := p.sim.Run(t, rootNode, it.M, p.buf, memsim.FiF)
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.begin("expand.stream", it.name, root)
	first := tr.begin("expand.first_seg", it.name, s)
	emit := -1
	res, err := p.eng.RecExpandStream(t, it.M, expand.Options{MaxPerNode: 2, Workers: p.spec.workers, CacheBudget: p.spec.budget}, func(seg []int) bool {
		if emit < 0 {
			tr.end(first)
			emit = tr.begin("expand.emit", it.name, s)
		}
		return true
	})
	tr.end(emit)
	tr.end(s)
	if err != nil {
		return err
	}
	if res.IO != it.want.IO || (it.want.Expansions >= 0 && res.Expansions != it.want.Expansions) {
		return fmt.Errorf("stream io=%d expansions=%d, want io=%d expansions=%d", res.IO, res.Expansions, it.want.IO, it.want.Expansions)
	}
	if count {
		cs := p.eng.CacheStats()
		p.remats += cs.Rematerializations
		p.evictions += cs.Evictions
		p.streamed += cs.StreamedNodes
		p.expansions += int64(res.Expansions)
		if cs.PeakResidentBytes > p.peakResident {
			p.peakResident = cs.PeakResidentBytes
		}
	}

	s = tr.begin("tree.encode", it.name, root)
	dw := newDigestWriter()
	_, err = tree.WriteSchedule(dw, it.sched.Emit)
	tr.end(s)
	if err != nil {
		return err
	}
	if dw.digest() != it.want.Stream {
		return fmt.Errorf("encoded stream %+v, want %+v", dw.digest(), it.want.Stream)
	}
	p.encoded += dw.n
	p.nodes += int64(t.N())
	p.items++
	return nil
}

// report sets the per-layer metrics of the probed engine layers.
func (p *prober) report(r *report, tr *tracer) {
	perNode := func(name string) float64 {
		if p.nodes == 0 {
			return 0
		}
		return float64(tr.total(name)) / float64(p.nodes)
	}
	r.set("memsim.fif_ns_per_node", perNode("memsim.fif"), "ns/node", p.items)
	r.set("liu.iter_ns_per_node", perNode("liu.iter"), "ns/node", p.items)
	r.set("liu.warm_ns_per_node", perNode("liu.warm"), "ns/node", p.items)
	r.set("liu.remats", float64(p.remats), "count", 0)
	r.set("liu.evictions", float64(p.evictions), "count", 0)
	r.set("liu.peak_resident_mib", float64(p.peakResident)/(1<<20), "MiB", 0)
	r.set("liu.streamed_nodes", float64(p.streamed), "count", 0)
	r.set("expand.expansions", float64(p.expansions), "count", 0)
	r.set("expand.first_seg_ms", perItemMS(tr, "expand.first_seg", p.items), "ms", p.items)
	r.set("expand.emit_ms", perItemMS(tr, "expand.emit", p.items), "ms", p.items)
	encRate := 0.0
	if enc := tr.total("tree.encode").Seconds(); enc > 0 {
		encRate = float64(p.encoded) / 1e6 / enc
	}
	r.set("tree.encode_mb_per_s", encRate, "MB/s", p.items)
}

// shareGroups are the modules layer shares are reported for; a span
// counts toward the module named before its first dot.
var shareGroups = []string{"memsim", "liu", "expand", "tree", "core", "schedd"}

// perItemMS is the mean duration of the spans named name over n items.
func perItemMS(tr *tracer, name string, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(float64(tr.total(name))) / float64(n)
}

// setShares reports each module's share of the probed time.
func setShares(r *report, b breakdown) {
	group := make(map[string]float64)
	for name, v := range b.share {
		mod, _, _ := strings.Cut(name, ".")
		group[mod] += v
	}
	for _, g := range shareGroups {
		r.set("share."+g, group[g], "ratio", 0)
	}
}

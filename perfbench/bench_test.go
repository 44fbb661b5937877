package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/randtree"
	"repro/internal/schedd"
	"repro/internal/tree"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35} // sorted: 15 20 35 40 50
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	var ten []float64
	for i := 10; i >= 1; i-- {
		ten = append(ten, float64(i))
	}
	if percentile(ten, 90) != 9 || percentile(ten, 99) != 10 || median(ten) != 5 {
		t.Errorf("1..10: p90=%g p99=%g p50=%g", percentile(ten, 90), percentile(ten, 99), median(ten))
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must read 0")
	}
	if ten[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	sizes := batchSizes()
	if len(sizes) != batchSynthTrees || sizes[0] < batchMinNodes || sizes[len(sizes)-1] > batchMaxNodes {
		t.Fatalf("batch sizes %v outside [%d, %d]", sizes, batchMinNodes, batchMaxNodes)
	}
	a, b, c := batchSynth(3), batchSynth(3), batchSynth(4)
	for i := range a {
		if !reflect.DeepEqual(a[i].Parents(), b[i].Parents()) || !reflect.DeepEqual(a[i].Weights(), b[i].Weights()) {
			t.Fatalf("tree %d differs between two draws of seed 3", i)
		}
	}
	if reflect.DeepEqual(a[0].Parents(), c[0].Parents()) {
		t.Error("seeds 3 and 4 drew the same tree")
	}
	for i, n := range sizes {
		if n >= batchFixedNodes && !reflect.DeepEqual(a[i].Parents(), c[i].Parents()) {
			t.Fatalf("tree %d (%d nodes) differs between seeds 3 and 4", i, n)
		}
	}

	if !reflect.DeepEqual(poissonDues(rand.New(rand.NewSource(5)), 10, time.Minute),
		poissonDues(rand.New(rand.NewSource(5)), 10, time.Minute)) {
		t.Error("arrivals differ for one seed")
	}
	pool, bySize := fakePool(t)
	plan := func(seed int64) []*serveReq {
		return planRequests(rand.New(rand.NewSource(seed)), pool, bySize, 120, "p")
	}
	p1, p2 := plan(9), plan(9)
	keyed, reused, text := 0, 0, 0
	for i := range p1 {
		u1, c1, b1 := p1[i].render()
		u2, c2, b2 := p2[i].render()
		if p1[i].entry != p2[i].entry || p1[i].key != p2[i].key || u1 != u2 || c1 != c2 || !bytes.Equal(b1, b2) {
			t.Fatalf("request %d differs between two plans of seed 9", i)
		}
		if p1[i].key != "" {
			keyed++
		}
		if p1[i].reuse {
			reused++
		}
		if p1[i].text {
			text++
		}
	}
	if keyed == 0 || reused == 0 || text == 0 {
		t.Errorf("plan lacks a request kind: keyed=%d reused=%d text=%d", keyed, reused, text)
	}
}

// fakePool is a pool of small trees, one per size class, without ground
// truth streams.
func fakePool(t *testing.T) ([]*poolEntry, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var pool []*poolEntry
	bySize := make([][]int, len(serveSizes))
	for si := range serveSizes {
		tr := randtree.Synth(50, rng)
		js, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		var txt bytes.Buffer
		if err := tr.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		for _, mid := range []bool{true, false} {
			in := core.NewInstance("t", tr)
			bySize[si] = append(bySize[si], len(pool))
			pool = append(pool, &poolEntry{item: &offItem{t: tr, M: in.LB}, treeJSON: js, treeText: txt.Bytes(), mid: mid})
		}
	}
	return pool, bySize
}

func TestPlanDealsEntriesInRounds(t *testing.T) {
	pool, bySize := fakePool(t)
	size := deckSize()
	plan := planRequests(rand.New(rand.NewSource(4)), pool, bySize, 3*size, "p")
	for lo := 0; lo < len(plan); lo += size {
		count := make(map[*poolEntry]int)
		for _, q := range plan[lo : lo+size] {
			count[q.entry]++
		}
		for si, sz := range serveSizes {
			for _, i := range bySize[si] {
				if want := sz.perDeck / len(bySize[si]); count[pool[i]] != want {
					t.Fatalf("deck %d drew entry %d of the %d-node class %d times, want %d", lo/size, i, sz.nodes, count[pool[i]], want)
				}
			}
		}
	}
}

func TestPlannedRequestsParse(t *testing.T) {
	pool, bySize := fakePool(t)
	for _, q := range planRequests(rand.New(rand.NewSource(2)), pool, bySize, 40, "p") {
		req, tt, err := schedd.ParseRequest(q.httpRequest(), 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if tt.N() != q.entry.item.t.N() || req.Mid != q.entry.mid || req.IdempotencyKey != q.key || req.Name != q.name {
			t.Fatalf("%s parsed as %+v", q.name, req)
		}
		if !q.entry.mid && req.M != q.entry.item.M {
			t.Fatalf("%s: m=%d, want %d", q.name, req.M, q.entry.item.M)
		}
	}
}

func TestOpenLoopChargesStalls(t *testing.T) {
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	stall := 150 * time.Millisecond
	recs := runLoop(dues, 1, 0, func(i int) (time.Time, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return time.Now(), nil
	})
	if len(recs) != len(dues) {
		t.Fatalf("%d records, want %d", len(recs), len(dues))
	}
	for i := 1; i < len(recs); i++ {
		// Request i was due at dues[i] but could only start once the
		// stalled request 0 finished: its latency carries the wait.
		if min := stall - dues[i]; recs[i].latency() < min || recs[i].late() < min {
			t.Errorf("request %d: latency %v late %v, want both ≥ %v", i, recs[i].latency(), recs[i].late(), min)
		}
	}
	if b := backlog(recs); b[1] != 2 {
		t.Errorf("backlog when request 1 started = %d, want 2 (requests 2 and 3 overdue)", b[1])
	}
	ps := summarise(recs)
	if ps.meets(100*time.Millisecond) || !ps.meets(time.Second) {
		t.Errorf("limit check wrong: p99=%v", time.Duration(percentile(ps.latencies, 99)))
	}

	// A closed loop stops taking requests once stopAfter has passed.
	closed := runLoop(make([]time.Duration, 1000), 2, 20*time.Millisecond, func(int) (time.Time, error) {
		time.Sleep(5 * time.Millisecond)
		return time.Now(), nil
	})
	if len(closed) == 0 || len(closed) > 20 {
		t.Errorf("closed loop took %d requests in 20ms at 5ms each over 2 connections", len(closed))
	}
}

func TestBacklogGrows(t *testing.T) {
	if backlogGrows([]int{0, 1, 0, 1, 0, 1}) {
		t.Error("flat backlog reported as growing")
	}
	if !backlogGrows([]int{0, 1, 2, 3, 4, 5}) {
		t.Error("rising backlog not reported")
	}
}

func TestGateRejectsCorruption(t *testing.T) {
	tr := randtree.Synth(400, rand.New(rand.NewSource(1)))
	in := core.NewInstance("g", tr)
	M := in.M(core.BoundMid)
	want, sched, err := groundTruth(expand.NewEngine(), tr, M, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if _, err := tree.WriteSchedule(&stream, sched.Emit); err != nil {
		t.Fatal(err)
	}
	good := stream.Bytes()
	if err := checkBody(good, append([]byte(nil), good...)); err != nil {
		t.Fatalf("identical stream rejected: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 1
	if checkBody(good, bad) == nil {
		t.Error("stream with one corrupted byte accepted")
	}
	if checkBody(good, good[:len(good)-1]) == nil {
		t.Error("truncated stream accepted")
	}

	got := want
	if err := want.check(got); err != nil {
		t.Fatalf("ground truth rejects itself: %v", err)
	}
	got.IO++
	if want.check(got) == nil {
		t.Error("wrong IO accepted")
	}
	got = want
	d := newDigestWriter()
	_, _ = d.Write(bad)
	got.Stream = d.digest()
	if want.check(got) == nil {
		t.Error("corrupted stream digest accepted")
	}
	got = want
	got.Expansions = want.Expansions + 1
	if want.check(got) == nil {
		t.Error("wrong expansion count accepted")
	}
	got.Expansions = -1
	if err := want.check(got); err != nil {
		t.Errorf("unreported expansion count rejected: %v", err)
	}
}

func TestParseStatz(t *testing.T) {
	in := statz{
		Broker:  schedd.BrokerStats{Total: 100, PeakUsed: 60 << 20, Granted: 7, Rejected: 2},
		Serving: schedd.ServingStats{Served: 5, Resumed: 1, Rejected: map[string]int64{"busy": 2}},
		Journal: schedd.JournalStats{Begun: 3, Reused: 1},
	}
	// Encode it the way the daemon's handler does.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(struct {
		Broker  schedd.BrokerStats  `json:"broker"`
		Serving schedd.ServingStats `json:"serving"`
		Journal schedd.JournalStats `json:"journal"`
	}{in.Broker, in.Serving, in.Journal}); err != nil {
		t.Fatal(err)
	}
	out, err := parseStatz(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("parsed %+v, want %+v", out, in)
	}
	if _, err := parseStatz(strings.NewReader("{")); err == nil {
		t.Error("truncated /statz accepted")
	}
}

func TestParseLogLine(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	// The daemon's request line, as server.go logs it.
	log.Info("schedd: request", "id", 7, "name", "high-3", "n", 2000, "queue_wait_ms", int64(12),
		"engine_wait_ms", int64(0), "stream_ms", int64(40), "key", "", "err", "")
	log.Info("schedd: request", "id", 8, "name", "a b=c", "queue_wait_ms", int64(1),
		"engine_wait_ms", int64(2), "stream_ms", int64(3), "err", `boom "quoted"`)
	log.Info("schedd: serving", "addr", "127.0.0.1:1")
	d := &daemon{logs: make(map[string]logLine)}
	d.piped.Add(1)
	d.readLogs(bytes.NewReader(buf.Bytes()))
	if ll, ok := d.logFor("high-3"); !ok || ll != (logLine{queueWait: 12, engineWait: 0, stream: 40}) {
		t.Errorf("high-3: %+v %v", ll, ok)
	}
	if ll, ok := d.logFor("a b=c"); !ok || ll != (logLine{queueWait: 1, engineWait: 2, stream: 3}) {
		t.Errorf("quoted name: %+v %v", ll, ok)
	}
	if len(d.logs) != 2 {
		t.Errorf("kept %d lines, want the 2 request lines", len(d.logs))
	}
}

func TestParseStatCPU(t *testing.T) {
	line := "4242 (sched d) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 1 0 100 0 0"
	got, err := parseStatCPU(line)
	if err != nil || got != 3250 {
		t.Errorf("cpu = %v %v, want 3250ms", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := peakRSSBytes(0); err != nil {
		t.Errorf("own VmHWM: %v", err)
	}
}

func TestBreakdown(t *testing.T) {
	tr := newTracer()
	root := tr.add("layers", "x", -1, 0, 100)
	tr.add("liu.warm", "x", root, 10, 40)
	tr.add("memsim.fif", "x", root, 30, 60) // overlaps liu.warm
	b := tr.breakdown("layers")
	if b.share["liu.warm"] != 0.3 || b.share["memsim.fif"] != 0.3 || b.unattributed != 0.5 {
		t.Errorf("breakdown %+v", b)
	}
}

// TestBenchmarkFileMatches pins BENCHMARK.json's metric lists to what the
// benchmark prints.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, benchmark prints %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestWindowMetricsIgnoreMinoritySlowdown(t *testing.T) {
	steady := window{times: []float64{1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6, 8e6, 9e6, 10e6}, nodes: 1000, wall: 0.055}
	slow := window{times: []float64{3e6, 6e6, 9e6, 12e6, 15e6, 18e6, 21e6, 24e6, 27e6, 30e6}, nodes: 1000, wall: 0.165}
	r := newReport(false)
	setWindowMetrics(r, []window{steady, slow, steady, slow, steady})
	want := map[string]float64{"p50_ms": 5, "nodes_per_s": 1000 / 0.055}
	for name, v := range want {
		if got := r.metrics[name].Value; got != v {
			t.Errorf("%s = %g, want the steady windows' %g", name, got, v)
		}
	}
}

func TestPassMetricsIgnoreSlowItems(t *testing.T) {
	// Three passes over three items; each pass has one item slowed
	// threefold, a different one each time, so no pass is clean.
	ws := []window{
		{times: []float64{3e6, 2e6, 7e6}, nodes: 600},
		{times: []float64{1e6, 6e6, 7e6}, nodes: 600},
		{times: []float64{1e6, 2e6, 21e6}, nodes: 600},
	}
	r := newReport(false)
	setPassMetrics(r, ws)
	want := map[string]float64{"p50_ms": 10, "nodes_per_s": 600 / 0.010}
	for name, v := range want {
		if got := r.metrics[name].Value; math.Abs(got-v) > 1e-9*v {
			t.Errorf("%s = %g, want the unslowed pass's %g", name, got, v)
		}
	}
}

func TestClosedWindows(t *testing.T) {
	pool, _ := fakePool(t)
	size := deckSize()
	var recs []sent
	var reqs []*serveReq
	for i := 0; i < 2*size+3; i++ {
		at := time.Duration(i) * time.Millisecond
		rec := sent{start: at, end: at + time.Millisecond}
		if i == size+3 {
			rec.err = fmt.Errorf("refused")
		}
		recs = append(recs, rec)
		reqs = append(reqs, &serveReq{entry: pool[0]})
	}
	ws := closedWindows(recs, reqs)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want the 2 whole decks", len(ws))
	}
	if len(ws[0].times) != size || len(ws[1].times) != size-1 || ws[1].wall != float64(size)/1000 {
		t.Errorf("windows %d and %d requests, second %gs; want %d, %d (one failed), %gs",
			len(ws[0].times), len(ws[1].times), ws[1].wall, size, size-1, float64(size)/1000)
	}
	// A closed loop shorter than a deck is one window.
	if ws := closedWindows(recs[:5], reqs[:5]); len(ws) != 1 || len(ws[0].times) != 5 {
		t.Errorf("short loop: %d windows", len(ws))
	}
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Seeds: defaultSeed is what a run without -seed measures; heldOutSeed is
// kept out of tuning, for confirming a claimed gain on unseen inputs.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupReps is how many times a run builds its inputs, ground truth and
// daemon; setup_s is their median.
const setupReps = 3

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"nodes_per_s", "nodes/s"},
	{"p50_ms", "ms"},
	{"peak_rss_mib", "MiB"},
	{"io_vs_lb", "ratio"},
}

// perLayer are the metrics a traced run prints, on every workload. A layer
// a workload does not call reads 0.
var perLayer = []metricSpec{
	{"memsim.fif_ns_per_node", "ns/node"},
	{"liu.iter_ns_per_node", "ns/node"},
	{"liu.warm_ns_per_node", "ns/node"},
	{"liu.remats", "count"},
	{"liu.evictions", "count"},
	{"liu.peak_resident_mib", "MiB"},
	{"liu.streamed_nodes", "count"},
	{"expand.expansions", "count"},
	{"expand.first_seg_ms", "ms"},
	{"expand.emit_ms", "ms"},
	{"tree.encode_mb_per_s", "MB/s"},
	{"core.analysis_ms", "ms"},
	{"schedd.parse_ms", "ms"},
	{"schedd.journal_ms", "ms"},
	{"schedd.queue_wait_ms.p99", "ms"},
	{"schedd.engine_wait_ms.p99", "ms"},
	{"schedd.stream_ms.p50", "ms"},
	{"schedd.granted", "count"},
	{"schedd.rejected", "count"},
	{"schedd.peak_used_mib", "MiB"},
	{"schedd.journal_reused", "count"},
	{"schedd.resumed", "count"},
	{"daemon.cpu_ms_per_req", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"share.memsim", "ratio"},
	{"share.liu", "ratio"},
	{"share.expand", "ratio"},
	{"share.tree", "ratio"},
	{"share.core", "ratio"},
	{"share.schedd", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and gate outcomes. JSON metrics go to
// the result line; every metric, JSON or not, is printed by name with its
// unit and sample count.
type report struct {
	traced    bool
	metrics   map[string]metric
	lines     []string
	attempted int64
	failed    int64
	failures  []string
}

func newReport(traced bool) *report {
	return &report{traced: traced, metrics: make(map[string]metric)}
}

// set records a metric of the result line (end-to-end in an untraced run,
// per-layer in a traced one) and prints it.
func (r *report) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit, samples)
}

// note prints a metric that is not on the result line.
func (r *report) note(name string, v float64, unit string, samples int) {
	line := fmt.Sprintf("%-28s %14.6g %-8s", name, v, unit)
	if samples > 0 {
		line += fmt.Sprintf(" n=%d", samples)
	}
	r.lines = append(r.lines, line)
}

// info prints a free-form line.
func (r *report) info(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// attempt counts one gated operation and its verdict.
func (r *report) attempt(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// complete checks that the result line carries exactly the metrics the
// mode promises, with their declared units.
func (r *report) complete() error {
	want := endToEnd
	if r.traced {
		want = perLayer
	}
	if len(r.metrics) != len(want) {
		var got []string
		for k := range r.metrics {
			got = append(got, k)
		}
		sort.Strings(got)
		return fmt.Errorf("result has metrics %v, want the %d declared ones", got, len(want))
	}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok || v.Unit != m.unit {
			return fmt.Errorf("metric %s missing or not in %s", m.name, m.unit)
		}
	}
	return nil
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	schedd   string
	workdir  string
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: batch, huge-stream or serve")
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	flag.StringVar(&o.schedd, "schedd", "", "path of the schedd binary (serve)")
	flag.StringVar(&o.workdir, "workdir", "", "directory for the run's files")
	flag.Parse()
	o.trace = trace == 1
	if o.workdir == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workdir, -seconds > 0 and -trace 0|1")
		return 2
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workdir = dir

	r := newReport(o.trace)
	r.info("# workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d go=%s rev=%s",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision())
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	switch o.workload {
	case "batch":
		err = runOffline(o, batchSpec, r, tr)
	case "huge-stream":
		err = runOffline(o, hugeSpec, r, tr)
	case "serve":
		err = runServe(o, r, tr)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err == nil {
		err = r.complete()
	}
	if err == nil && tr != nil {
		path := filepath.Join(filepath.Dir(dir), fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
		if err = tr.write(path); err == nil {
			r.info("# spans written to %s", path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fail := 0.0
	if r.attempted > 0 {
		fail = float64(r.failed) / float64(r.attempted)
	}
	r.note("fail_frac", fail, "ratio", int(r.attempted))
	for _, f := range r.failures {
		r.info("# FAILED %s", f)
	}
	fmt.Println(strings.Join(r.lines, "\n"))
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if r.failed > 0 || r.attempted == 0 {
		return 1
	}
	return 0
}

// revision is the VCS revision the binary was built from, when known,
// marked "+dirty" when the tree had uncommitted changes.
func revision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// since is the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

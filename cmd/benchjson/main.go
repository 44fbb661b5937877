// Command benchjson converts `go test -bench` output into the repository's
// BENCH_<n>.json trajectory format: one JSON document with the machine
// context and one entry per benchmark, custom b.ReportMetric values
// included. It reads the benchmark output from stdin (or -in) and writes
// JSON to stdout (or -out).
//
// Usage:
//
//	go test -run '^$' -bench RecExpand -benchtime 5x . | benchjson -out BENCH_1.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark line.
type Entry struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// PeakRSSBytes is the process resident-memory high-water mark the
	// benchmark reported via the peak_rss_bytes metric (getrusage
	// ru_maxrss), promoted out of Metrics so the trajectory's residency
	// claims are first-class schema. Monotone within one benchmark
	// process: read deltas between rows, or isolate a benchmark per run
	// (see BENCH.md). 0 when the benchmark does not report it.
	PeakRSSBytes int64              `json:"peak_rss_bytes,omitempty"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

// Document is the whole BENCH_<n>.json payload. HostCPUs and GoMaxProcs
// are recorded from the machine running benchjson — the same machine that
// ran the benchmarks in the `make bench-json` pipeline — so every
// trajectory record carries the parallelism context its workers>1 rows
// must be read against: those rows shard the initial profile warm, and on
// a single-core host they measure sharding overhead, not speedup (see
// BENCH.md).
type Document struct {
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	Pkg        string  `json:"pkg,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	HostCPUs   int     `json:"host_cpus"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	doc, err := Parse(r)
	if err != nil {
		fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found"))
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
}

// Parse reads `go test -bench` output and extracts context plus benchmark
// entries. Lines it does not recognize are ignored, so piping the full
// test output (including PASS/ok trailers) is fine.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{HostCPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			e, ok := parseBenchLine(line)
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, e)
			}
		}
	}
	return doc, sc.Err()
}

// parseBenchLine parses "BenchmarkX-8  5  123 ns/op  4 B/op  2.0 metric".
func parseBenchLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Entry{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix when it is purely numeric.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: name, Iterations: iters}
	// The rest are value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			e.NsPerOp = val
			continue
		}
		if unit == "peak_rss_bytes" {
			e.PeakRSSBytes = int64(val)
			continue
		}
		if e.Metrics == nil {
			e.Metrics = map[string]float64{}
		}
		e.Metrics[unit] = val
	}
	return e, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

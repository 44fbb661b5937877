// Command perfbench is the repository's benchmark: it schedules seeded
// inputs through the public functions of the internal modules and through
// the cmd/schedd binary, times those calls from outside, checks every
// output against ground truth computed at set-up, and prints every metric
// by name with its unit. The last line of its output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// It is a module of its own (go.mod beside this file) so the repository's
// own build and tests are unaffected. Run it from the repository root:
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 25 --trace 0
//
// run.sh builds the benchmark and schedd into $CARGO_TARGET_DIR (default
// .bench_build), with the Go build cache there too, and runs one workload.
// The default seed is 1; seed 7919 is held out, for confirming a claimed
// gain on inputs no tuning has seen. BENCHMARK.json at the root names the
// command, the workloads and the metrics with their regression bounds.
//
// # Workloads
//
// batch (offline, closed loop, one client). 32 SYNTH random binary trees
// (randtree.Synth), one per equal stratum of log n between 3k and 300k
// nodes, plus the paper's 62 TREES elimination trees
// (experiments.Trees(experiments.PaperTrees), 88k nodes). The 20 trees
// under 50k nodes are drawn from the seed; the 12 larger ones are the same
// for every seed, because they take about 90% of a pass and one tree's
// RecExpand time differs from the next of its size by up to 3×: drawn
// from the seed, they moved the pass time by up to 23% between seeds.
// Each tree is scheduled by RECEXPAND at the paper's mid bound through
// the materialising core.Runner.Run on one worker; huge-stream keeps the
// automatic parallel setting. On a 2-vCPU host the automatic driver made
// a batch pass 10% slower than one worker did and doubled the spread
// between runs.
// Why: the per-iteration schedule walk and FiF re-simulation dominate
// here and cost grows faster than n; the cache is unbounded, so
// cache-budget work does not show.
//
// huge-stream (offline). The experiments.Huge staircase forest at 10⁶
// nodes, streamed by expand.Engine.RecExpandStream under a 64 MiB
// CacheBudget with each segment encoded by tree.WriteSchedule into a
// counting, hashing discard writer. The unbounded cache peaks near 2 GiB
// on this forest; at a tenth of that nothing is evicted, so the budget is
// set low enough that eviction and rematerialisation (about 2×10⁶ remats
// per pass) do the work. Only two expansions happen, so the expansion loop
// and memsim are bypassed: profile warm, eviction, rematerialisation, rope
// release and encoding dominate. The staircase is deterministic; the seed
// does not change it.
//
// serve (schedd child process). The daemon runs with engines = nproc = 2,
// one worker each, and a budget of four times schedd.EstimateCost of the
// largest tree.
// Three phases share one daemon: a closed loop of one client sending back
// to back for half the run, then open-loop Poisson arrivals at 43 req/s
// (low) and 75 req/s (high) over two connections, each request timed from
// its due time.
// The rates come from a closed loop of two clients: on a 2-vCPU host it
// sustained 84-91 req/s of this mix over four seeds (median 85), so low is
// about half and high about 88% of that. At high the generator builds a
// backlog of 13-33 requests, and in seven of ten runs the high rung met
// the ladder's conditions: a slower daemon drops max_rate_rps to low. The
// gated closed loop has one client because with two, the client and two
// busy engines share the two CPUs and the host's scheduling shows: its
// nodes/s spread twice as much between runs of one seed.
// Request sizes come from shuffled decks of 50: 40 of 2k nodes, 8 of 20k
// and 2 of 100k, drawn from a pool of 96, 16 and 8 trees, so the median
// request is a small one and p90 a 20k one. Each size's pool entries are
// dealt in rounds, every entry once per round; the 100k entries in pool
// order, so deck k asks for 100k tree k mod 8 at both its bounds. Only
// the 2k trees come from the seed. The 20k and 100k trees are the same
// for every seed, because they carry most of the engine time and of
// io_vs_lb: one 100k tree's RecExpand time differs from the next by up to
// 4×, and drawn from the seed the 100k trees moved closed-loop throughput
// by a fifth between seeds; drawn at random per request, which two a deck
// held moved its throughput between 330k and 960k nodes/s within one run.
// With 48 2k trees io_vs_lb spread 0.06 (IQR over median) over twelve
// seeds, with 96 0.03. Half the pool asks for the mid bound (the daemon
// runs the analysis), half sends an explicit m; one
// request in five is a text/plain treegen body; about a quarter carry an
// idempotency_key, and a third of those re-send a key that was already
// used. Every request may queue for admission (wait_ms) rather than be
// refused. The daemon receives only the generated bodies, never the seed.
// Why: on small trees, parse, analysis, admission and stream writing
// rival the engine, and keyed requests run beside anonymous ones.
//
// The daemon runs without -checkpoint-dir. With one, every request (keyed
// or not) writes fsynced checkpoints, and on a 2-core host with an
// ordinary disk capacity fell from about 150 to about 15 req/s and the
// median small request from 3 ms to 90 ms: the benchmark would measure the
// disk. Keyed requests therefore use the in-memory journal; a re-sent key
// reuses its journal entry but recomputes. Journal writes to disk are
// timed in-process instead (schedd.journal_ms).
//
// # End-to-end metrics
//
// Untraced runs (--trace 0) print these on every workload:
//
//	setup_s       s        median of three set-ups: input generation, ground
//	                       truth, and on serve the daemon start until /readyz
//	nodes_per_s   nodes/s  input nodes scheduled per second of the closed
//	                       loop
//	p50_ms        ms       offline: wall time of one pass over the inputs
//	                       (the whole batch; the one forest on huge-stream);
//	                       serve: a request, from send to the "# end" trailer
//	peak_rss_mib  MiB      VmHWM of the scheduling process: offline this
//	                       process, restarted before each timed pass, on top
//	                       of the inputs and ground truth it keeps; on serve
//	                       the daemon child from its start to the end of
//	                       the closed loop, which runs first
//	io_vs_lb      ratio    Σ IO / Σ (Peak − M), the paper's objective against
//	                       its lower bound, over the ground truth; on serve
//	                       each pool entry weighted by how often the deck
//	                       draws it; deterministic for a seed
//
// The closed-loop metrics are medians, so a slowdown of the host during a
// minority of the run does not move them. Offline, every tree's time is
// its median over the timed passes; p50_ms is the pass those times add up
// to and nodes_per_s a pass's nodes over it; peak_rss_mib is the median of
// the passes' peaks. On serve a window is one deck of 50 consecutive
// closed-loop requests, which holds exactly the deck's mix of sizes, and
// nodes_per_s and p50_ms are medians over the windows. Latency under
// open-loop load swings with where the seeded arrivals bunch up, so the
// gated serve p50 comes from the closed loop; the open-loop figures are
// printed beside it. Per-tree times on batch are printed, not
// gated: the median tree is a sub-millisecond TREES instance that times
// call overhead and moved by a third between runs of one seed, and the
// 90th percentile lands on one mid-sized SYNTH tree whose shape the seed
// decides. Offline runs also print rss_base_mib, the resident set the
// passes start from, and rss_growth_mib, the timed path's own increment.
//
// Failures (gate mismatches, errors, refusals, timeouts) are the result
// line's failed count out of attempted; fail_frac is printed too. Any
// failure makes the run exit non-zero. Every workload also prints
// items_per_s, the trees or requests completed per second of the closed
// loop (offline a constant multiple of nodes_per_s). The serve workload
// prints p90_ms of the closed loop, lat_p50_ms and lat_p99_ms at both
// rates (from due time to the trailer), ttfb_p50_ms.high, max_rate_rps
// (the higher of the two rates whose p99 stays within 1 s with no failure
// and no growing backlog; a 100k-node request alone takes about 300 ms)
// and the generator's lateness and backlog; offline workloads print
// run_p50_ms and run_p90_ms, per tree.
//
// # Output gate
//
// Set-up computes ground truth once per input. Offline: the sequential
// materialising engine's IO, expansions and peak; the schedule is
// validated, re-simulated with FiF and encoded to a digest. Serve: the
// expected stream bytes from core.Runner.RunStream and tree.WriteSchedule.
// Every timed call is compared against it, as is a rebuilt set-up.
//
// # Traced mode
//
// --trace 1 runs the same inputs, spends part of the run untraced and the
// rest traced, and prints the per-layer metrics. Spans (name, start, end,
// parent, tree or request id) are the benchmark's own, around its calls
// into each module; they are kept in memory and written as JSON lines to
// trace-<workload>-<seed>.jsonl in the build directory at exit. A layer's
// self time is its span minus its children; share.<module> is a module's
// self time over the probed time and trace.overhead_frac the traced
// end-to-end time per node over the untraced one, minus one (on serve the
// median request service time, send to trailer, of a traced high-rate
// phase over that of an untraced one).
//
// trace.unattributed_frac relates the layers to the end-to-end time,
// clamped at 0. Offline it is 1 − (expand.stream + tree.encode on
// huge-stream) ÷ e2e, summed over the traced items: the part of the timed
// call that the engine and encoder, timed separately on the same input,
// do not account for (on batch the materialising of the schedule). It
// reads 0 while the separate calls take at least as long as the timed one,
// as they did on both offline workloads when this benchmark was written;
// trace.e2e_ms and trace.model_ms print both sides per item. On serve it
// is the part of request latency not covered by generator lateness and
// the daemon's logged queue, engine-wait and stream times.
//
// A layer a workload does not call reads 0. Each row names the end-to-end
// metric it should move, and the workload with most and little work:
//
//	memsim.fif_ns_per_node     Simulator.Run, FiF, on each input's Liu schedule
//	                           nodes_per_s, p50_ms          batch / huge-stream
//	liu.iter_ns_per_node       a full ProfileCache.ScheduleIter walk
//	                           nodes_per_s                  batch / serve
//	liu.warm_ns_per_node       NewProfileCacheOpts + Peak(root) at the
//	                           workload's budget            huge-stream / batch
//	liu.remats, liu.evictions, liu.peak_resident_mib, liu.streamed_nodes
//	                           Engine.CacheStats per input, summed over one pass
//	                           nodes_per_s, peak_rss_mib    huge-stream / batch
//	expand.expansions          Result.Expansions, summed over one pass
//	                           nodes_per_s                  batch / huge-stream
//	expand.first_seg_ms, expand.emit_ms
//	                           RecExpandStream split at the first segment
//	                           nodes_per_s, serve p50_ms    huge-stream / batch
//	tree.encode_mb_per_s       WriteSchedule into a discard writer
//	                           nodes_per_s, serve p50_ms    huge-stream / batch
//	core.analysis_ms           core.NewInstance (mid bound)
//	                           serve p50_ms                 serve / batch
//	schedd.parse_ms            ParseRequest on the planned JSON and text bodies
//	                           serve p50_ms, nodes_per_s    serve / offline (0)
//	schedd.journal_ms          fingerprint hash + Journal.Begin + Commit on
//	                           disk, keyed requests
//	                           serve p50_ms                 serve keyed
//	schedd.queue_wait_ms.p99, schedd.engine_wait_ms.p99, schedd.stream_ms.p50
//	                           the daemon's per-request log lines (whole ms)
//	                           serve p50_ms, nodes_per_s    serve high
//	                           (with two connections and two engines the
//	                           waits stay 0 unless the budget binds)
//	schedd.granted, schedd.rejected, schedd.peak_used_mib,
//	schedd.journal_reused, schedd.resumed
//	                           /statz before and after      serve
//	daemon.cpu_ms_per_req      /proc/<pid>/stat utime+stime ÷ served
//	                           nodes_per_s, max_rate_rps    serve
//	loadgen.late_p99_ms, loadgen.backlog_max
//	                           the generator's own schedule at the high rate,
//	                           where the queue of a slower daemon builds:
//	                           max_rate_rps                 serve high / low
//
// # The older trajectory
//
// The bench_test.go benchmarks and the BENCH_<n>.json files they produced
// stay as they are, but no longer carry performance claims: they were
// recorded on different hosts, and the same code reads several times
// slower or faster from one record to the next. A claim cites this
// benchmark, run on one host against the parent revision.
package main

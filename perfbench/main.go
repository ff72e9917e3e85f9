// Command perfbench is the repository's benchmark: it drives seda through
// its public functions on one of four workloads over the paper's Figure-6
// loop, checks every answer against a reference computed untimed in
// set-up, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of its output.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	explore  closed loop, 1 client: whole Figure-6 sessions, resident engine
//	paged    closed loop, 1 client: cold searches at a 25% resident budget
//	serve    open loop over HTTP on loopback at a ladder of fixed rates
//	mutate   closed loop, 1 client: add/update/delete writes, then searches
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares; TestMetricsMatchBenchmarkJSON keeps
// them in step.
type metricDef struct{ name, unit string }

// endToEnd are printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_ms.p50", "ms"},
	{"search_ms.tail", "ms"},
	{"op_ms.p50", "ms"},
	{"op_ms.tail", "ms"},
	{"load_ms.p50", "ms"},
	{"throughput_ops_s", "1/s"},
	{"heap_mb", "MB"},
}

// perLayer are printed by every traced run, on every workload. A layer a
// workload never calls reads 0.
var perLayer = []metricDef{
	{"topk.search_ms", "ms"},
	{"topk.rank_ms", "ms"},
	{"topk.tuples_scored", "count"},
	{"topk.units_scanned", "count"},
	{"topk.waves", "count"},
	{"topk.useful_ratio", "ratio"},
	{"graph.steiner_us", "us"},
	{"graph.build_ms", "ms"},
	{"graph.edges", "count"},
	{"index.fetch_ms", "ms"},
	{"index.pageins_per_search", "count"},
	{"index.disk_reads_per_search", "count"},
	{"index.evictions_per_search", "count"},
	{"index.resident_bytes", "bytes"},
	{"index.budget_ratio", "ratio"},
	{"index.build_ms", "ms"},
	{"snapshot.load_ms", "ms"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"dataguide.build_ms", "ms"},
	{"summary.contexts_ms", "ms"},
	{"summary.connections_ms", "ms"},
	{"summary.conn_cache_hit_ratio", "ratio"},
	{"twig.complete_ms", "ms"},
	{"twig.tuples", "count"},
	{"cube.build_ms", "ms"},
	{"cube.fact_rows", "count"},
	{"olap.analyze_ms", "ms"},
	{"lifecycle.add_ms", "ms"},
	{"lifecycle.update_ms", "ms"},
	{"lifecycle.delete_ms", "ms"},
	{"lifecycle.compact_ms", "ms"},
	{"lifecycle.compactions", "count"},
	{"lifecycle.tombstone_ratio_max", "ratio"},
	{"lifecycle.masked_search_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.searches", "count"},
	{"server.handler_ms.sessions", "ms"},
	{"server.handler_ms.topk", "ms"},
	{"server.handler_ms.contexts", "ms"},
	{"server.handler_ms.connections", "ms"},
	{"server.handler_ms.results", "ms"},
	{"server.handler_ms.cube", "ms"},
	{"server.session_evictions", "count"},
	{"loadgen.lag_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// dir is a temporary directory inside the checkout for snapshot files.
	dir string
	// corrupt damages the reference answers; the benchmark's own tests
	// use it to show that the answer check catches a wrong answer.
	corrupt bool
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64 // end-to-end or per-layer, by mode
	lines             []string           // human-readable report
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check records one answer comparison; a mismatch is a failed op.
func (r *result) check(ok bool, what string) {
	if !ok {
		r.failed++
		if r.failed <= 5 {
			r.printf("MISMATCH: %s", what)
		}
	}
}

type workload struct {
	name string
	run  func(o options) (*result, error)
}

var workloads = []workload{
	{"explore", runExplore},
	{"paged", runPaged},
	{"serve", runServe},
	{"mutate", runMutate},
}

func main() {
	name := flag.String("workload", "", "workload: explore, paged, serve or mutate")
	seed := flag.Uint64("seed", 1, "seed for the generated queries and writes")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload explore|paged|serve|mutate --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(buildDir, "run-*")
	if err != nil {
		fatal(err)
	}
	o := options{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		dir:      dir,
	}
	res, err := w.run(o)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	emit(os.Stdout, o, res)
}

// buildDir holds the benchmark's build output, temporary files and traces,
// inside the checkout it runs from.
const buildDir = ".bench_build"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the human-readable report, the error rate, and the JSON
// result line.
func emit(f *os.File, o options, res *result) {
	for _, l := range res.lines {
		fmt.Fprintln(f, l)
	}
	fmt.Fprintf(f, "error_rate: %g (%d failed of %d attempted)\n",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{Value: res.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(f, string(line))
}

// envBlock is printed by every run: what the numbers were measured on and
// with which workload settings.
func envBlock(o options, settings map[string]any) string {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      o.trace,
	}
	for k, v := range settings {
		env[k] = v
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("env:")
	for _, k := range keys {
		v, _ := json.Marshal(env[k])
		fmt.Fprintf(&b, " %s=%s", k, v)
	}
	return b.String()
}

// runtimeWindow measures the Go runtime's allocation and GC activity over
// a measured window.
type runtimeWindow struct{ m0 runtime.MemStats }

func startRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{}
	runtime.ReadMemStats(&w.m0)
	return w
}

// stop records the window's per-op allocation and GC figures.
func (w *runtimeWindow) stop(res *result, ops int) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	n := float64(ops)
	res.metrics["runtime.alloc_kb_per_op"] = ratio(float64(m1.TotalAlloc-w.m0.TotalAlloc)/1024, n)
	res.metrics["runtime.gc_cycles_per_op"] = ratio(float64(m1.NumGC-w.m0.NumGC), n)
	res.metrics["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-w.m0.PauseTotalNs) / 1e6
}

// liveHeapMB is the post-GC live heap, in MB, with keep (the engine or
// server under test) still reachable.
func liveHeapMB(keep ...any) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / (1 << 20)
}

// snapshotPath names a snapshot file in the run's temporary directory.
func (o options) snapshotPath(name string) string { return filepath.Join(o.dir, name+".snap") }

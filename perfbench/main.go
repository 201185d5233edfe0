// Command perfbench is the repository's benchmark of record. It drives one
// workload against the simulator's public Go API and HTTP service from a
// single process, checks every output, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as the last line of
// standard output. See README.md for how to run it and what each metric
// means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric and its unit. The tables below and
// BENCHMARK.json must agree (TestBenchmarkJSONMatchesMetricTables).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run. An "op" is the workload's
// unit of user-visible work: a campaign job (figures-*), a submit-to-results
// campaign round trip (service-mixed) or a live session from first byte to
// reconciled done (live-ingest).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_s_p50", "s"},
	{"op_s_p90", "s"},
	{"sim_events_per_s", "1/s"},
	{"host_alloc_mb_per_op", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of the traced run. A layer that a workload does
// not exercise reads 0 there.
var perLayer = []metricDef{
	{"campaign.job_ms", "ms"},
	{"campaign.pool_busy_ratio", "ratio"},
	{"campaign.tail_ms", "ms"},
	{"workload.run_s", "s"},
	{"workload.generate_s", "s"},
	{"workload.generate_share", "ratio"},
	{"workload.decode_mib_per_s", "MiB/s"},
	{"workload.replay_events_per_s", "1/s"},
	{"core.malloc_ns", "ns"},
	{"core.malloc_share", "ratio"},
	{"core.free_ns", "ns"},
	{"core.free_share", "ratio"},
	{"core.revoke_ms", "ms"},
	{"core.revoke_share", "ratio"},
	{"alloc.bin_rescans_per_malloc", "ratio"},
	{"alloc.heap_grows", "count"},
	{"mem.store_cap_ns", "ns"},
	{"mem.store_cap_share", "ratio"},
	{"mem.pages_mapped", "count"},
	{"mem.cache_model_ns_per_line", "ns"},
	{"mem.cache_accesses", "count"},
	{"shadow.paint_ns_per_chunk", "ns"},
	{"shadow.word_store_share", "ratio"},
	{"quarantine.frees_per_chunk", "ratio"},
	{"revoke.sweep_gib_per_s", "GiB/s"},
	{"revoke.bytes_swept", "count"},
	{"revoke.image_sweep_share", "ratio"},
	{"engine.store_get_job_ms", "ms"},
	{"engine.store_publish_job_ms", "ms"},
	{"engine.store_put_result_ms", "ms"},
	{"engine.store_create_campaign_ms", "ms"},
	{"engine.fsyncs_per_job", "ratio"},
	{"engine.lease_wait_s", "s"},
	{"engine.dedup_hit_ratio", "ratio"},
	{"engine.readcache_hit_ratio", "ratio"},
	{"engine.dispatch_job_ms", "ms"},
	{"engine.dispatch_retries", "count"},
	{"server.submit_ms", "ms"},
	{"server.events_ms", "ms"},
	{"server.results_ms", "ms"},
	{"livetrace.ingest_s", "s"},
	{"livetrace.reconcile_s", "s"},
	{"livetrace.first_stats_s", "s"},
	{"livetrace.stalls_per_session", "ratio"},
	{"livetrace.dropped_windows", "count"},
	{"trace_overhead", "ratio"},
}

// minOps is the fewest ops an untraced run measures, however slow the
// host: the p90 then has ten samples beyond it.
const minOps = 10 * tailSamples

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupRepeats = 3

// env is what a workload gets from the harness.
type env struct {
	ctx     context.Context
	seed    uint64
	seconds float64
	traced  bool
	tmp     string  // scratch directory inside the checkout, removed at exit
	tracer  *Tracer // nil in the untraced run
	out     *outcome
}

// runFor returns the measurement budget as a duration.
func (e *env) runFor() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// outcome is everything a workload run reports.
type outcome struct {
	attempted int
	failed    int
	problems  []string           // one line per failed operation or check
	metrics   map[string]float64 // end-to-end or per-layer, by name
	report    []reportLine       // the workload's own names for its figures
}

type reportLine struct {
	name  string
	value any
	unit  string
}

// fail records a failed operation or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(name string, value any, unit string) {
	o.report = append(o.report, reportLine{name, value, unit})
}

// timing collects a closed loop's end-to-end figures.
type timing struct {
	setups  []float64 // one per set-up repetition, seconds
	lat     []float64 // one per completed op, seconds
	elapsed float64   // seconds from the loop's start to its last completion
	events  float64   // simulated malloc+free events the ops covered
	allocB  uint64    // Go heap bytes allocated during the loop
	peakB   uint64    // peak live Go heap during the loop

	// opRates and eventRates, when the loop runs in rounds, hold each
	// round's ops and simulated events per second; the throughputs are then
	// their medians, so one round slowed by the shared host counts once.
	opRates, eventRates []float64
}

// endToEndMetrics turns a loop's timing into the end-to-end metrics and
// the report lines every workload shares. op names the workload's unit of
// work in the report.
func (o *outcome) endToEndMetrics(t timing, op string) {
	n := float64(len(t.lat))
	o.metrics["setup_s"] = median(t.setups)
	o.note("setup_s of each repetition", fmt.Sprint(t.setups), "s")
	o.metrics["ops_per_s"] = n / t.elapsed
	o.metrics["sim_events_per_s"] = t.events / t.elapsed
	if len(t.opRates) > 0 {
		o.metrics["ops_per_s"] = median(t.opRates)
		o.metrics["sim_events_per_s"] = median(t.eventRates)
	}
	o.metrics["op_s_p50"] = percentile(t.lat, 50)
	o.metrics["op_s_p90"] = percentile(t.lat, 90)
	o.metrics["host_alloc_mb_per_op"] = float64(t.allocB) / 1e6 / n
	o.metrics["peak_heap_mb"] = float64(t.peakB) / 1e6
	o.note(op+"s", len(t.lat), "count")
	if pct, val, cnt, ok := tailPercentile(t.lat); ok {
		o.note(fmt.Sprintf("%s_s_tail (p%.1f of n=%d)", op, pct, cnt), val, "s")
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(*env) error{
	"figures-churn": runFiguresChurn,
	"figures-sweep": runFiguresSweep,
	"service-mixed": runServiceMixed,
	"live-ingest":   runLiveIngest,
}

func main() {
	name := flag.String("workload", "", "workload to run: figures-churn, figures-sweep, service-mixed or live-ingest")
	seed := flag.Uint64("seed", 1, "workload seed; every input of the run derives from it")
	seconds := flag.Float64("seconds", 15, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// Request logs of the in-process servers would flood stderr; warnings
	// and errors still show.
	obs.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	if err := os.MkdirAll(".bench_build/tmp", 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(".bench_build/tmp", *name+"-")
	if err != nil {
		fatal(err)
	}
	e := &env{
		ctx:     context.Background(),
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		tmp:     tmp,
		out:     &outcome{metrics: map[string]float64{}},
	}
	if e.traced {
		e.tracer = newTracer()
	}
	err = run(e)
	if rmErr := os.RemoveAll(tmp); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := e.tracer.Write(path); err != nil {
			fatal(err)
		}
		e.out.note("spans written to", path, "")
	}
	printResult(os.Stdout, *name, e.out, defs)
}

func printResult(w io.Writer, name string, o *outcome, defs []metricDef) {
	fmt.Fprintf(w, "workload %s  (nproc %d, GOMAXPROCS %d)\n", name, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, l := range o.report {
		fmt.Fprintf(w, "  %-44s %v %s\n", l.name, l.value, l.unit)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	res := resultOut{
		Correct:   o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   map[string]metricOut{},
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: o.metrics[d.name], Unit: d.unit}
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

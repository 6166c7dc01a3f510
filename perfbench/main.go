// Command perfbench is the repository's benchmark. It runs one workload
// (or all) against the real code, prints every end-to-end metric with
// its unit, checks that every output is correct, and ends its standard
// output with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. With --trace 1 it also runs a traced window and reports
// the per-layer metrics instead, writing a traced-run report next to
// the results.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//
// The exit code is 0 when every check passed, 1 when a correctness
// check failed or the run could not finish, 2 on bad arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

var workloads = []string{"churn", "resident", "sim"}

// options are one invocation's settings. The sizes below --seconds are
// constants in a real run; the smoke test shrinks them.
type options struct {
	workload   string
	seed       int64
	measure    time.Duration
	traced     bool
	out        string
	warmup     time.Duration
	wireSetups int
	simSetups  int
	simMinutes int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "churn, resident, sim or all")
	seed := fs.Int64("seed", 1, "workload seed: request shapes (wire) or request stream (sim)")
	seconds := fs.Float64("seconds", 10, "measured wall time per window")
	trace := fs.Int("trace", 0, "1 adds a traced window and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for result files and the traced-run report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, n := range names {
		if !known(n) {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", n, strings.Join(workloads, ", "))
			return 2
		}
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	o := options{
		seed:       *seed,
		measure:    time.Duration(*seconds * float64(time.Second)),
		traced:     *trace == 1,
		out:        *out,
		warmup:     time.Second,
		wireSetups: 50,
		simSetups:  9,
		simMinutes: 500,
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	var results []*result
	for _, n := range names {
		o.workload = n
		r := runWorkload(o)
		printResult(stdout, r)
		if err := writeFiles(o.out, r); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		results = append(results, r)
	}
	line, err := jsonLine(results, o.traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	for _, r := range results {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// result is one workload's outcome.
type result struct {
	workload          string
	seed              int64
	traced            bool
	attempted, failed int64
	errs              []string
	e2e               map[string]float64 // untraced window
	tracedE2E         map[string]float64 // traced window
	layers            map[string]float64 // traced window
	notes             [][2]string        // extra report lines
	spans             []span
}

func (r *result) correct() bool {
	return r.failed == 0 && r.e2e != nil && (!r.traced || r.layers != nil)
}

// fail records failed checks, one failure each.
func (r *result) fail(msgs ...string) {
	r.failed += int64(len(msgs))
	r.errs = append(r.errs, msgs...)
}

// abort records an error that stopped the run.
func (r *result) abort(err error) { r.fail("run aborted: " + err.Error()) }

func (r *result) note(key, format string, args ...any) {
	r.notes = append(r.notes, [2]string{key, fmt.Sprintf(format, args...)})
}

func runWorkload(o options) *result {
	r := &result{workload: o.workload, seed: o.seed, traced: o.traced}
	if o.workload == "sim" {
		simWorkload(r, o)
	} else {
		wireWorkload(r, o)
	}
	if r.attempted < r.failed {
		r.attempted = r.failed
	}
	if r.attempted < 1 {
		r.attempted = 1
	}
	return r
}

// wireWorkload runs churn or resident: the set-up timing, the untraced
// window, and with tracing a second, traced window on a fresh stack.
func wireWorkload(r *result, o options) {
	setup, err := wireSetup(o.wireSetups)
	if err != nil {
		r.abort(err)
		return
	}
	cfg := wireConfig{resident: o.workload == "resident", seed: o.seed, warmup: o.warmup, measure: o.measure}
	absorb := func(run *wireRun, err error) bool {
		if run != nil {
			r.attempted += int64(run.requests())
			r.failed += run.st.failed
			r.errs = append(r.errs, run.st.errs...)
		}
		if err != nil {
			r.abort(err)
			return false
		}
		return true
	}
	run, err := runWire(cfg)
	if !absorb(run, err) {
		return
	}
	r.e2e = run.endToEnd()
	r.e2e["setup_s"] = setup
	r.note("compose samples", "%d in %d one-second sub-windows", len(run.st.composeRTT), len(subWindows(run.ticks)))
	if cfg.resident {
		r.note("resident set", "%d sessions per connection, %d connections", run.target, wireConns)
		r.note("recompose_ok_ratio", "%.4f ratio (%d of %d recomposes migrated)",
			ratio(float64(run.st.migrated), float64(run.st.recomposes)), run.st.migrated, run.st.recomposes)
	}
	if !o.traced {
		r.e2e["max_rss_mb"] = maxRSSMB()
		return
	}
	cfg.traced = true
	trun, err := runWire(cfg)
	if !absorb(trun, err) {
		return
	}
	rss := maxRSSMB()
	r.e2e["max_rss_mb"] = rss
	r.tracedE2E = trun.endToEnd()
	r.tracedE2E["setup_s"] = setup
	r.tracedE2E["max_rss_mb"] = rss
	r.layers = trun.layers()
	r.spans = trun.st.spans
	addOverhead(r)

	dispatch := trun.quantiles("server.phase.compose.latency_quantiles_ms")
	client := 0.0
	for _, s := range trun.st.composeRTT {
		client += s.ms
	}
	r.note("reconcile client compose RTT", "%.3f ms over %d composes", client, len(trun.st.composeRTT))
	r.note("reconcile server.phase.compose", "%.3f ms over %d dispatches", dispatch.sum(), dispatch.count())
	r.note("reconcile residual", "%.3f ms (%.1f%% of client RTT): decode, encode, syscalls, scheduling",
		client-dispatch.sum(), 100*ratio(client-dispatch.sum(), client))
}

// simWorkload runs sim: the set-up timing, the untraced window, and
// with tracing a traced window on the same platform and seed, whose
// results must match the untraced ones bit for bit.
func simWorkload(r *result, o options) {
	setup, p, err := simSetup(o.simSetups)
	if err != nil {
		r.abort(err)
		return
	}
	cfg := simConfig{seed: o.seed, minutes: o.simMinutes, measure: o.measure}
	run, err := runSim(p, cfg)
	if err != nil {
		r.abort(err)
		return
	}
	want := fingerprint(run.reps[0].res)
	r.attempted += int64(run.requests())
	r.fail(run.check(want)...)
	r.e2e = run.endToEnd()
	r.e2e["setup_s"] = setup
	r.note("runs", "%d experiment.Run calls of %d simulated minutes, %d requests each",
		len(run.reps), cfg.minutes, run.reps[0].res.Requests)
	r.note("compose latency", "probe round trip on the simulated clock, %d samples",
		run.reps[0].snap.Quantiles["core.walk.rtt_ms"].Count)
	if o.traced {
		cfg.traced = true
		trun, err := runSim(p, cfg)
		if err != nil {
			r.abort(err)
			return
		}
		r.attempted += int64(trun.requests())
		r.fail(trun.check(want)...)
		r.tracedE2E = trun.endToEnd()
		r.tracedE2E["setup_s"] = setup
		r.layers = trun.layers()
		r.spans = trun.spans
	}
	rss := maxRSSMB()
	r.e2e["max_rss_mb"] = rss
	if r.tracedE2E != nil {
		r.tracedE2E["max_rss_mb"] = rss
		addOverhead(r)
	}
}

// addOverhead records what tracing cost, as traced minus untraced.
func addOverhead(r *result) {
	r.layers["trace.throughput_overhead_frac"] = ratio(r.e2e["throughput_ops_s"]-r.tracedE2E["throughput_ops_s"], r.e2e["throughput_ops_s"])
	r.layers["trace.cpu_overhead_frac"] = ratio(r.tracedE2E["cpu_ms_per_op"]-r.e2e["cpu_ms_per_op"], r.e2e["cpu_ms_per_op"])
}

// metricsOf lists a result's reported metrics: the end-to-end ones
// untraced, the per-layer ones traced. A layer the workload does not
// exercise reads 0.
func metricsOf(r *result, traced bool) (map[string]float64, []spec) {
	if !traced {
		return r.e2e, endToEnd
	}
	return r.layers, perLayer
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the final line. With several workloads the metric
// names are prefixed with the workload.
func jsonLine(results []*result, traced bool) ([]byte, error) {
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		line.Correct = line.Correct && r.correct()
		line.Attempted += r.attempted
		line.Failed += r.failed
		values, specs := metricsOf(r, traced)
		for _, s := range specs {
			v := values[s.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: metric %s is %v", r.workload, s.name, v)
			}
			name := s.name
			if len(results) > 1 {
				name = r.workload + "." + name
			}
			line.Metrics[name] = jsonMetric{Value: v, Unit: s.unit}
		}
	}
	return json.Marshal(line)
}

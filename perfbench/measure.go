package main

import (
	"bufio"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// spec names one reported metric and its unit. Per-layer metrics also
// name the end-to-end metric they should move and the workloads where
// they should move it.
type spec struct {
	name, unit string
	moves, on  string
}

// endToEnd lists the metrics a user of the system sees, in report
// order. Every workload reports every one; README.md says what each
// means on each workload.
var endToEnd = []spec{
	{name: "setup_s", unit: "s"},
	{name: "compose_p50_ms", unit: "ms"},
	{name: "admit_ratio", unit: "ratio"},
	{name: "mean_phi", unit: "phi"},
	{name: "overhead_msgs_per_request", unit: "msgs/req"},
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "alloc_kb_per_op", unit: "KiB"},
	{name: "max_rss_mb", unit: "MB"},
}

// ungated lists end-to-end metrics that are printed and saved but not
// declared in BENCHMARK.json. On the shared box the benchmark was tuned
// on, the host's speed drifts over minutes and the wire workloads
// amplify the drift (two connections hand a lock and a loopback socket
// back and forth), so over ten runs these spread wider than the largest
// bound a declaration allows: wall throughput up to 0.31, p90 0.23, p99
// 0.25 (interquartile range over median).
var ungated = []spec{
	{name: "throughput_ops_s", unit: "1/s"},
	{name: "compose_p90_ms", unit: "ms"},
	{name: "compose_p99_ms", unit: "ms"},
}

// reported is every end-to-end metric a result file and report carry.
var reported = append(append([]spec(nil), endToEnd...), ungated...)

// perLayer lists the traced window's metrics; the prefix before the
// first dot is the module measured. A metric whose layer a workload
// does not exercise reads 0 there.
var perLayer = []spec{
	{"server.compose_rtt_p50_ms", "ms", "compose_p50_ms", "churn"},
	{"server.compose_rtt_p99_ms", "ms", "compose_p90_ms, compose_p99_ms", "churn"},
	{"server.teardown_rtt_p50_ms", "ms", "compose_p90_ms, throughput_ops_s", "churn"},
	{"server.teardown_rtt_p99_ms", "ms", "compose_p90_ms, throughput_ops_s", "churn"},
	{"server.commit_rtt_p50_ms", "ms", "throughput_ops_s", "resident"},
	{"server.recompose_rtt_p50_ms", "ms", "throughput_ops_s", "resident"},
	{"server.dispatch_compose_p50_ms", "ms", "compose_p50_ms", "churn, resident"},
	{"server.dispatch_compose_sum_ms", "ms", "compose_p50_ms", "churn, resident"},
	{"server.wire_residual_ms", "ms", "cpu_ms_per_op, compose_p50_ms", "churn (sim: no change)"},
	{"runtime.find_p50_ms", "ms", "throughput_ops_s", "churn, resident"},
	{"runtime.find_p99_ms", "ms", "throughput_ops_s", "churn, resident"},
	{"runtime.find_busy_frac", "ratio", "throughput_ops_s", "churn"},
	{"runtime.outside_probe_ms", "ms", "compose_p90_ms", "churn"},
	{"runtime.migration_p50_ms", "ms", "throughput_ops_s", "resident"},
	{"runtime.find_fail_ratio", "ratio", "admit_ratio", "resident"},
	{"runtime.recompose_ok_ratio", "ratio", "throughput_ops_s", "resident"},
	{"core.probes_per_request", "msgs/req", "cpu_ms_per_op, overhead_msgs_per_request", "all"},
	{"core.returns_per_request", "msgs/req", "cpu_ms_per_op, overhead_msgs_per_request", "all"},
	{"core.discovery_per_request", "msgs/req", "cpu_ms_per_op, overhead_msgs_per_request", "all"},
	{"core.probes_per_admit", "msgs/admit", "cpu_ms_per_op", "resident, sim"},
	{"state.updates_per_request", "msgs/req", "overhead_msgs_per_request, cpu_ms_per_op", "resident, sim (churn: ~0)"},
	{"state.confirmations_per_admit", "msgs/admit", "overhead_msgs_per_request", "resident, sim"},
	{"state.live_sessions_mean", "count", "admit_ratio (context)", "resident"},
	{"experiment.wall_s_per_sim_min", "s", "throughput_ops_s", "sim"},
	{"experiment.aggregations_per_min", "msgs/min", "overhead_msgs_per_request", "sim"},
	{"experiment.mean_probe_latency_ms", "ms", "compose_p50_ms", "sim"},
	{"trace.throughput_overhead_frac", "ratio", "throughput_ops_s (traced minus untraced)", "all"},
	{"trace.cpu_overhead_frac", "ratio", "cpu_ms_per_op (traced minus untraced)", "all"},
}

// percentile returns the nearest-rank p-quantile of xs, sorting xs in
// place; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// qDelta is what one registry quantile histogram received between two
// snapshots.
type qDelta struct {
	before, after obs.QHistogramSnapshot
}

func (d qDelta) count() int64  { return d.after.Count - d.before.Count }
func (d qDelta) sum() float64  { return d.after.Sum - d.before.Sum }
func (d qDelta) mean() float64 { return ratio(d.sum(), float64(d.count())) }

// quantile estimates the p-quantile of the observations made between
// the two snapshots from the difference of their bucket counts,
// interpolating linearly inside the bucket that holds the rank (the
// registry's own Quantile reports the bucket midpoint, which would make
// nearby runs read identically).
func (d qDelta) quantile(p float64) float64 {
	total := d.count()
	if total <= 0 {
		return 0
	}
	prev := make(map[float64]int64, len(d.before.Buckets))
	for _, b := range d.before.Buckets {
		prev[b.Upper] = b.Count
	}
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	seen := int64(0)
	for _, b := range d.after.Buckets {
		c := b.Count - prev[b.Upper]
		if c <= 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := qBucketRange(b.Upper, d.after.Max)
			return lo + (hi-lo)*float64(rank-seen)/float64(c)
		}
		seen += c
	}
	return d.after.Max
}

// qBucketRange recovers a QHistogram bucket's value range from its
// upper bound: each power-of-two octave is split into 32 equal
// sub-buckets (obs/quantile.go). The zero bucket is [0,0] and the
// overflow bucket runs up to the histogram's maximum.
func qBucketRange(upper, max float64) (lo, hi float64) {
	switch {
	case upper <= 0:
		return 0, 0
	case upper == math.MaxFloat64:
		return max, max
	}
	frac, exp := math.Frexp(upper) // upper = frac * 2^exp, frac in [0.5, 1)
	scale := math.Ldexp(1, exp-1)
	if frac == 0.5 { // upper closes its octave
		scale = math.Ldexp(1, exp-2)
	}
	return upper - scale/32, upper
}

// procSample is the process's CPU and allocation totals at one instant.
type procSample struct {
	at       time.Time
	cpu      time.Duration
	allocB   uint64
	maxRSSKB int64
}

func sampleProc() procSample {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	ru := rusage()
	return procSample{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:   ms.TotalAlloc,
		maxRSSKB: ru.Maxrss,
	}
}

// cpuNow is the process's user+sys CPU so far, without sampleProc's
// stop-the-world memory statistics.
func cpuNow() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// procDelta is the process cost of one measured window.
type procDelta struct {
	wall   time.Duration
	cpu    time.Duration
	allocB uint64
}

func since(start procSample) procDelta {
	end := sampleProc()
	return procDelta{wall: end.at.Sub(start.at), cpu: end.cpu - start.cpu, allocB: end.allocB - start.allocB}
}

func maxRSSMB() float64 { return float64(sampleProc().maxRSSKB) / 1024 }

// boxContext stamps results with what makes numbers comparable: numbers
// from different CPUs, core counts or toolchains are not.
func boxContext(seed int64) [][2]string {
	return [][2]string{
		{"cpu", cpuModel()},
		{"nproc", strconv.Itoa(goruntime.NumCPU())},
		{"gomaxprocs", strconv.Itoa(goruntime.GOMAXPROCS(0))},
		{"go", goruntime.Version()},
		{"os_arch", goruntime.GOOS + "/" + goruntime.GOARCH},
		{"seed", strconv.FormatInt(seed, 10)},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

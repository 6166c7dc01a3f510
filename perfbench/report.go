package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"
)

// printResult writes a workload's human-readable block: box context,
// every end-to-end metric with its unit, the failure fraction, notes,
// and any correctness failures.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "perfbench %s trace=%d %s\n", r.workload, btoi(r.traced), contextLine(r.seed))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, s := range endToEnd {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", s.name, r.e2e[s.name], s.unit)
	}
	for _, s := range ungated {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s (not gated)\n", s.name, r.e2e[s.name], s.unit)
	}
	fmt.Fprintf(tw, "  failed_frac\t%.6g\tratio (%d of %d)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(tw, "  %s\t%s\n", n[0], n[1])
	}
	if r.traced {
		for _, s := range perLayer {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", s.name, r.layers[s.name], s.unit)
		}
	}
	_ = tw.Flush() // w is stdout or a buffer
	for _, e := range r.errs {
		fmt.Fprintln(w, "  FAIL", e)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func contextLine(seed int64) string {
	parts := make([]string, 0, 6)
	for _, kv := range boxContext(seed) {
		parts = append(parts, fmt.Sprintf("%s=%q", kv[0], kv[1]))
	}
	return strings.Join(parts, " ")
}

// writeFiles saves a workload's results under dir: <workload>.json
// always; with tracing also <workload>.trace-report.txt and the spans
// in <workload>.spans.csv. Each run overwrites the previous run's files.
func writeFiles(dir string, r *result) error {
	if err := writeJSON(filepath.Join(dir, r.workload+".json"), r); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	if err := writeWith(filepath.Join(dir, r.workload+".trace-report.txt"), func(w io.Writer) { traceReport(w, r) }); err != nil {
		return err
	}
	return writeWith(filepath.Join(dir, r.workload+".spans.csv"), func(w io.Writer) { writeSpans(w, r.spans) })
}

func writeWith(path string, fill func(io.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fill(bw)
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func writeJSON(path string, r *result) error {
	metricMap := func(values map[string]float64, specs []spec) map[string]jsonMetric {
		if values == nil {
			return nil
		}
		m := make(map[string]jsonMetric, len(specs))
		for _, s := range specs {
			m[s.name] = jsonMetric{Value: values[s.name], Unit: s.unit}
		}
		return m
	}
	ctx := map[string]string{}
	for _, kv := range boxContext(r.seed) {
		ctx[kv[0]] = kv[1]
	}
	notes := map[string]string{}
	for _, n := range r.notes {
		notes[n[0]] = n[1]
	}
	doc := map[string]any{
		"workload":          r.workload,
		"traced":            r.traced,
		"context":           ctx,
		"correct":           r.correct(),
		"attempted":         r.attempted,
		"failed":            r.failed,
		"failures":          r.errs,
		"end_to_end":        metricMap(r.e2e, reported),
		"traced_end_to_end": metricMap(r.tracedE2E, reported),
		"per_layer":         metricMap(r.layers, perLayer),
		"notes":             notes,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// traceReport writes the traced-run report: end-to-end totals of the
// untraced and traced windows with the tracing overhead, the per-layer
// breakdown with what each metric should move, and the reconciliation
// of the client's compose time against the server's.
func traceReport(w io.Writer, r *result) {
	fmt.Fprintf(w, "perfbench traced-run report: workload %s\n%s\n\n", r.workload, contextLine(r.seed))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "== end-to-end totals ==")
	fmt.Fprintln(tw, "metric\tuntraced\ttraced\toverhead\tunit")
	for _, s := range reported {
		u, t := r.e2e[s.name], r.tracedE2E[s.name]
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%+.2f%%\t%s\n", s.name, u, t, 100*ratio(t-u, u), s.unit)
	}
	fmt.Fprintf(tw, "failed_frac\t%d of %d\t\t\tratio\n", r.failed, r.attempted)
	fmt.Fprintln(tw, "\t\t\t\t")
	fmt.Fprintln(tw, "== per-layer breakdown ==")
	fmt.Fprintln(tw, "layer\tmetric\tvalue\tunit\tmoves\ton")
	for _, s := range perLayer {
		layer, _, _ := strings.Cut(s.name, ".")
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\t%s\n", layer, s.name, r.layers[s.name], s.unit, s.moves, s.on)
	}
	fmt.Fprintln(tw, "\t\t\t\t\t")
	fmt.Fprintln(tw, "== notes and reconciliation ==")
	for _, n := range r.notes {
		fmt.Fprintf(tw, "%s\t%s\n", n[0], n[1])
	}
	_ = tw.Flush() // errors surface at the caller's Flush
	for _, e := range r.errs {
		fmt.Fprintln(w, "FAIL", e)
	}
}

// writeSpans writes one CSV row per span, times in microseconds from
// the start of its window.
func writeSpans(w io.Writer, spans []span) {
	fmt.Fprintln(w, "trace,name,parent,start_us,dur_us")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%s,%s,%d,%d\n", s.trace, s.name, s.name.parent(), s.start/time.Microsecond, s.dur/time.Microsecond)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/server"
)

// tiny shrinks every size so a traced run of one workload takes about
// a second.
func tiny(workload string) options {
	return options{
		workload:   workload,
		seed:       7,
		measure:    200 * time.Millisecond,
		traced:     true,
		warmup:     50 * time.Millisecond,
		wireSetups: 2,
		simSetups:  1,
		simMinutes: 20,
	}
}

// exercised lists the per-layer prefixes each workload must report
// from measurement; the other layers read 0 by design.
var exercised = map[string][]string{
	"churn":    {"server.", "runtime.", "core.", "state.", "trace."},
	"resident": {"server.", "runtime.", "core.", "state.", "trace."},
	"sim":      {"core.", "state.updates", "state.confirmations", "experiment.", "trace."},
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			r := runWorkload(tiny(w))
			if !r.correct() {
				t.Fatalf("run not correct: failed %d: %v", r.failed, r.errs)
			}
			for _, s := range reported {
				if _, ok := r.e2e[s.name]; !ok {
					t.Errorf("end-to-end metric %s missing", s.name)
				}
				if _, ok := r.tracedE2E[s.name]; !ok {
					t.Errorf("traced end-to-end metric %s missing", s.name)
				}
			}
			for _, s := range perLayer {
				_, ok := r.layers[s.name]
				for _, prefix := range exercised[w] {
					if strings.HasPrefix(s.name, prefix) && !ok {
						t.Errorf("per-layer metric %s missing", s.name)
					}
				}
			}
			for name := range r.e2e {
				if !listed(name, reported) {
					t.Errorf("unlisted end-to-end metric %s", name)
				}
			}
			for name := range r.layers {
				if !listed(name, perLayer) {
					t.Errorf("unlisted per-layer metric %s", name)
				}
			}
			for _, traced := range []bool{false, true} {
				checkLine(t, []*result{r}, traced)
			}
		})
	}
}

func listed(name string, specs []spec) bool {
	for _, s := range specs {
		if s.name == name {
			return true
		}
	}
	return false
}

// checkLine renders the final JSON line and checks it carries every
// metric with its unit.
func checkLine(t *testing.T, rs []*result, traced bool) {
	t.Helper()
	data, err := jsonLine(rs, traced)
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]jsonMetric
	}
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("line %s: want correct, attempted >= 1, failed 0", data)
	}
	_, specs := metricsOf(rs[0], traced)
	if len(line.Metrics) != len(specs) {
		t.Errorf("line has %d metrics, want %d", len(line.Metrics), len(specs))
	}
	for _, s := range specs {
		if m, ok := line.Metrics[s.name]; !ok || m.Unit != s.unit {
			t.Errorf("line metric %s = %+v, want unit %s", s.name, m, s.unit)
		}
	}
}

func TestGateTripsOnPermutedComponents(t *testing.T) {
	fns := []int{3, 1, 4}
	comps := []server.PlacedComponent{{Position: 0, Function: 3}, {Position: 1, Function: 1}, {Position: 2, Function: 4}}
	if err := checkComponents(fns, comps); err != nil {
		t.Fatalf("matching composition rejected: %v", err)
	}
	comps[0].Function, comps[2].Function = comps[2].Function, comps[0].Function
	if checkComponents(fns, comps) == nil {
		t.Fatal("permuted composition accepted")
	}

	// The same corruption arriving over the wire must count as failures
	// and make the workload incorrect.
	reverse := func(resp *server.Response) {
		c := resp.Components
		for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
			c[i].Function, c[j].Function = c[j].Function, c[i].Function
		}
	}
	run, err := runWire(wireConfig{seed: 7, warmup: 10 * time.Millisecond, measure: 100 * time.Millisecond, corrupt: reverse})
	if err != nil {
		t.Fatal(err)
	}
	if run.st.failed == 0 {
		t.Fatal("permuted responses passed the gate")
	}
}

// The drain check must see a session a connection still holds, and the
// sim check a result that differs from the first run's.
func TestGateTripsOnLeftoversAndDivergence(t *testing.T) {
	st, err := bootStack()
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	cl, err := server.Dial(st.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	shapes, _ := genShapes(7, 0, 16)
	if _, err := cl.Hello("t0"); err != nil {
		t.Fatal(err)
	}
	if resp, err := cl.Compose(shapes[0]); err != nil || !resp.OK {
		t.Fatalf("compose: %v %+v", err, resp)
	}
	if errs := checkDrained(st.cluster); len(errs) == 0 {
		t.Error("drain check passed with a live session")
	}

	p, err := experiment.BuildPlatform(simSystem())
	if err != nil {
		t.Fatal(err)
	}
	run, err := runSim(p, simConfig{seed: 7, minutes: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(run.reps[0].res)
	if errs := run.check(want); len(errs) != 0 {
		t.Fatalf("identical rerun rejected: %v", errs)
	}
	run.reps[0].res.MeanPhi += 1e-12
	if errs := run.check(want); len(errs) == 0 {
		t.Error("diverging result accepted")
	}
}

func TestCommandExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "bogus"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	out.Reset()
	args := []string{"--workload", "churn", "--seed", "3", "--seconds", "0.2", "--trace", "0", "--out", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("churn: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct{ Correct bool }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || !line.Correct {
		t.Errorf("last line %q: correct=%v err=%v", lines[len(lines)-1], line.Correct, err)
	}
}

func TestDeltaQuantileInterpolatesInsideBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := obs.NewQHistogram()
	before := h.Snapshot()
	for i := 0; i < 10000; i++ {
		v := 0.01 + rng.Float64()*10
		h.Observe(v)
	}
	d := qDelta{before: before, after: h.Snapshot()}
	for _, p := range []float64{0.5, 0.99} {
		want := 0.01 + p*10
		if got := d.quantile(p); got < want*0.97 || got > want*1.03 {
			t.Errorf("p%v = %v, want %v within 3%%", p, got, want)
		}
	}
	for _, v := range []float64{0.3, 1, 1.5, 1.99, 2, 7.99, 1000} {
		h := obs.NewQHistogram()
		h.Observe(v)
		upper := h.Snapshot().Buckets[0].Upper
		if lo, hi := qBucketRange(upper, v); !(lo <= v && v < hi) {
			t.Errorf("value %v outside its bucket [%v, %v)", v, lo, hi)
		}
	}
}

// The benchmark's declaration at the repository root must list the
// metrics the code reports, with the same units, in the same order.
func TestDeclarationMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for i, w := range decl.Workloads {
		if i >= len(workloads) || w.Name != workloads[i] {
			t.Errorf("workload %d is %q, code has %v", i, w.Name, workloads)
		}
	}
	for _, c := range []struct {
		decl  []struct{ Name, Unit string }
		specs []spec
	}{{decl.EndToEnd, endToEnd}, {decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.specs) {
			t.Errorf("declared %d metrics, code reports %d", len(c.decl), len(c.specs))
			continue
		}
		for i, m := range c.decl {
			if m.Name != c.specs[i].name || m.Unit != c.specs[i].unit {
				t.Errorf("metric %d declared %s [%s], code reports %s [%s]", i, m.Name, m.Unit, c.specs[i].name, c.specs[i].unit)
			}
		}
	}
}

package state

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/qos"
)

func newTestGlobal(t *testing.T) (*Global, *Ledger, *clock, *metrics.Counters) {
	t.Helper()
	mesh := testMesh(t, 20, 2)
	clk := &clock{}
	l := NewLedger(mesh, qos.Resources{CPU: 100, Memory: 1000}, clk.Now)
	var c metrics.Counters
	g, err := NewGlobal(l, mesh, DefaultGlobalConfig(), &c)
	if err != nil {
		t.Fatal(err)
	}
	return g, l, clk, &c
}

func TestNewGlobalValidation(t *testing.T) {
	mesh := testMesh(t, 10, 3)
	clk := &clock{}
	l := NewLedger(mesh, qos.Resources{CPU: 1}, clk.Now)
	bad := DefaultGlobalConfig()
	bad.UpdateThreshold = 1
	if _, err := NewGlobal(l, mesh, bad, nil); err == nil {
		t.Error("threshold 1 accepted")
	}
	bad = DefaultGlobalConfig()
	bad.AggregationPeriod = 0
	if _, err := NewGlobal(l, mesh, bad, nil); err == nil {
		t.Error("zero aggregation period accepted")
	}
	if _, err := NewGlobal(l, mesh, DefaultGlobalConfig(), nil); err != nil {
		t.Errorf("nil counters rejected: %v", err)
	}
}

func TestGlobalThresholdFiltering(t *testing.T) {
	g, l, _, c := newTestGlobal(t)

	// A small commit (5% of CPU, 2% of memory) stays below the 10%
	// threshold: the view must NOT update.
	if err := l.CommitSession(1, map[int]qos.Resources{0: {CPU: 5, Memory: 20}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := g.NodeAvailable(0); got != (qos.Resources{CPU: 100, Memory: 1000}) {
		t.Errorf("view updated for insignificant change: %v", got)
	}
	if c.StateUpdates != 0 {
		t.Errorf("StateUpdates = %d, want 0", c.StateUpdates)
	}

	// A further commit pushing total drift past 10% triggers an update.
	if err := l.CommitSession(2, map[int]qos.Resources{0: {CPU: 7}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := g.NodeAvailable(0); got != (qos.Resources{CPU: 88, Memory: 980}) {
		t.Errorf("view after significant change = %v, want fresh truth", got)
	}
	if c.StateUpdates != 1 {
		t.Errorf("StateUpdates = %d, want 1", c.StateUpdates)
	}
}

func TestGlobalLinkThresholdAndAggregation(t *testing.T) {
	g, l, _, c := newTestGlobal(t)
	capacity := l.LinkCapacity(0)

	// Drain 50% of link 0: triggers a report, but link queries still see
	// the stale aggregation snapshot.
	if err := l.CommitSession(1, nil, map[int]float64{0: capacity / 2}); err != nil {
		t.Fatal(err)
	}
	if c.StateUpdates != 1 {
		t.Fatalf("StateUpdates = %d, want 1", c.StateUpdates)
	}
	if got := g.LinkAvailable(0); got != capacity {
		t.Errorf("pre-aggregation LinkAvailable = %v, want stale %v", got, capacity)
	}

	g.Aggregate()
	if got := g.LinkAvailable(0); got != capacity/2 {
		t.Errorf("post-aggregation LinkAvailable = %v, want %v", got, capacity/2)
	}
	if c.Aggregations != int64(g.mesh.NumNodes()) {
		t.Errorf("Aggregations = %d, want %d", c.Aggregations, g.mesh.NumNodes())
	}
}

func TestGlobalIgnoresTransientHolds(t *testing.T) {
	g, l, _, c := newTestGlobal(t)
	// Large transient hold: the coarse state must not hear about it.
	if !l.HoldNode(1, 0, 0, qos.Resources{CPU: 90, Memory: 900}, time.Minute) {
		t.Fatal("hold rejected")
	}
	if got := g.NodeAvailable(0); got != (qos.Resources{CPU: 100, Memory: 1000}) {
		t.Errorf("global view saw a transient hold: %v", got)
	}
	if c.StateUpdates != 0 {
		t.Errorf("StateUpdates = %d, want 0", c.StateUpdates)
	}
}

func TestGlobalSessionReleaseTriggersUpdate(t *testing.T) {
	g, l, _, _ := newTestGlobal(t)
	if err := l.CommitSession(1, map[int]qos.Resources{3: {CPU: 50, Memory: 500}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := g.NodeAvailable(3).CPU; got != 50 {
		t.Fatalf("view after commit = %v", got)
	}
	l.ReleaseSession(1)
	if got := g.NodeAvailable(3).CPU; got != 100 {
		t.Errorf("view after release = %v, want 100", got)
	}
}

func TestAggregationRotation(t *testing.T) {
	g, _, _, _ := newTestGlobal(t)
	first := g.AggregationNode()
	g.Aggregate()
	second := g.AggregationNode()
	if first == second {
		t.Errorf("aggregation role did not rotate: %d -> %d", first, second)
	}
	for i := 0; i < g.mesh.NumNodes(); i++ {
		g.Aggregate()
	}
	if g.AggregationNode() != second {
		t.Errorf("rotation is not round-robin")
	}
}

func TestForceRefresh(t *testing.T) {
	g, l, _, _ := newTestGlobal(t)
	// Small (sub-threshold) commits leave the view stale...
	if err := l.CommitSession(1, map[int]qos.Resources{0: {CPU: 5}}, map[int]float64{0: 1}); err != nil {
		t.Fatal(err)
	}
	if g.NodeAvailable(0).CPU != 100 {
		t.Fatal("unexpected eager update")
	}
	// ...until a forced refresh exposes the truth everywhere.
	g.ForceRefresh()
	if got := g.NodeAvailable(0).CPU; got != 95 {
		t.Errorf("CPU after refresh = %v, want 95", got)
	}
	if got := g.LinkAvailable(0); got != l.LinkCapacity(0)-1 {
		t.Errorf("link view after refresh = %v, want %v", got, l.LinkCapacity(0)-1)
	}
}

package state

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/qos"
)

// GlobalConfig controls the coarse-grain global state maintenance rules
// of §3.2.
type GlobalConfig struct {
	// UpdateThreshold is the fraction of a metric's maximum value a node
	// or link state must drift before a global update is triggered. The
	// paper's experiments use 10%.
	UpdateThreshold float64
	// AggregationPeriod is how often the aggregation node recomputes the
	// virtual-link states between all node pairs (paper example: 10 min).
	AggregationPeriod time.Duration
}

// DefaultGlobalConfig mirrors the paper's simulation settings.
func DefaultGlobalConfig() GlobalConfig {
	return GlobalConfig{
		UpdateThreshold:   0.10,
		AggregationPeriod: 10 * time.Minute,
	}
}

// Global is the coarse-grain global state: every node's and overlay
// link's last *reported* resource availability, plus a periodically
// aggregated snapshot used for virtual-link queries.
//
// Reported values update only when the true committed availability drifts
// more than UpdateThreshold of the metric's capacity from the last report,
// filtering out insignificant variations (§3.2). Virtual-link bandwidth
// queries use the aggregation snapshot, which is stale up to a full
// AggregationPeriod — the price of scalable state maintenance that the
// probes' precise on-path measurements compensate for.
type Global struct {
	cfg    GlobalConfig
	ledger *Ledger
	mesh   *overlay.Mesh

	nodeView []qos.Resources // last threshold-triggered node reports
	linkView []float64       // last threshold-triggered link reports
	aggView  []float64       // link view frozen at the last aggregation

	aggNode  int // rotating aggregation role (§3.2, round robin)
	counters *metrics.Counters
}

// NewGlobal wires a global state to the ledger and subscribes to its
// change notifications. Counters may be nil when overhead accounting is
// not needed.
func NewGlobal(ledger *Ledger, mesh *overlay.Mesh, cfg GlobalConfig, counters *metrics.Counters) (*Global, error) {
	if cfg.UpdateThreshold < 0 || cfg.UpdateThreshold >= 1 {
		return nil, fmt.Errorf("state: UpdateThreshold %v out of [0,1)", cfg.UpdateThreshold)
	}
	if cfg.AggregationPeriod <= 0 {
		return nil, fmt.Errorf("state: AggregationPeriod %v <= 0", cfg.AggregationPeriod)
	}
	if counters == nil {
		counters = &metrics.Counters{}
	}
	g := &Global{
		cfg:      cfg,
		ledger:   ledger,
		mesh:     mesh,
		nodeView: make([]qos.Resources, ledger.NumNodes()),
		linkView: make([]float64, ledger.NumLinks()),
		aggView:  make([]float64, ledger.NumLinks()),
		counters: counters,
	}
	for i := range g.nodeView {
		g.nodeView[i] = ledger.NodeCommittedAvailable(i)
	}
	for i := range g.linkView {
		g.linkView[i] = ledger.LinkCommittedAvailable(i)
		g.aggView[i] = g.linkView[i]
	}
	ledger.SetChangeObservers(g.nodeChanged, g.linkChanged)
	return g, nil
}

// nodeChanged applies the threshold rule after a committed change on
// node.
func (g *Global) nodeChanged(node int) {
	truth := g.ledger.NodeCommittedAvailable(node)
	capacity := g.ledger.NodeCapacity(node)
	view := g.nodeView[node]
	if exceeds(view.CPU, truth.CPU, capacity.CPU, g.cfg.UpdateThreshold) ||
		exceeds(view.Memory, truth.Memory, capacity.Memory, g.cfg.UpdateThreshold) {
		g.nodeView[node] = truth
		g.counters.AddStateUpdates(1)
	}
}

// linkChanged applies the threshold rule after a committed change on an
// overlay link. A triggered link update is a report to the aggregation
// node (one message); dissemination happens at the aggregation period.
func (g *Global) linkChanged(link int) {
	truth := g.ledger.LinkCommittedAvailable(link)
	capacity := g.ledger.LinkCapacity(link)
	if exceeds(g.linkView[link], truth, capacity, g.cfg.UpdateThreshold) {
		g.linkView[link] = truth
		g.counters.AddStateUpdates(1)
	}
}

func exceeds(view, truth, max, threshold float64) bool {
	if max <= 0 {
		return view != truth
	}
	return math.Abs(view-truth) > threshold*max
}

// Aggregate recomputes the virtual-link snapshot from the reported link
// states. The experiment loop schedules this every AggregationPeriod; the
// aggregation role rotates round-robin over nodes for load sharing and
// the dissemination counts one message per system node.
func (g *Global) Aggregate() {
	copy(g.aggView, g.linkView)
	g.aggNode = (g.aggNode + 1) % g.mesh.NumNodes()
	g.counters.AddAggregations(int64(g.mesh.NumNodes()))
}

// AggregationNode returns the node currently holding the aggregation role.
func (g *Global) AggregationNode() int {
	return g.aggNode
}

// Period returns the configured aggregation period.
func (g *Global) Period() time.Duration { return g.cfg.AggregationPeriod }

// NodeAvailable returns the coarse-grain view of a node's available
// resources — possibly stale within the update threshold.
func (g *Global) NodeAvailable(node int) qos.Resources {
	return g.nodeView[node]
}

// LinkAvailable returns the coarse-grain available bandwidth of an
// overlay link: its value in the latest aggregation snapshot.
func (g *Global) LinkAvailable(link int) float64 {
	return g.aggView[link]
}

// ForceRefresh resets every reported value to the current truth, as if
// every threshold fired. The ablation benchmarks use it to emulate a
// centralized always-fresh global state.
func (g *Global) ForceRefresh() {
	for i := range g.nodeView {
		g.nodeView[i] = g.ledger.NodeCommittedAvailable(i)
	}
	for i := range g.linkView {
		g.linkView[i] = g.ledger.LinkCommittedAvailable(i)
	}
	copy(g.aggView, g.linkView)
}

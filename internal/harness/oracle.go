package harness

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/state"
)

// phiSlack tolerates float noise between the two phi computations; a
// genuine bound violation is orders of magnitude larger.
const phiSlack = 1e-6

// Oracle is the model-based reference: the centralized exhaustive
// composer (core.AlgOptimal) running over the *same* mesh and catalog
// as the distributed cluster, with its own ledger kept in lockstep by
// committing exactly the compositions the dist engine commits. Under a
// zero-fault, full-probing (alpha=1), sequential schedule the two
// systems see identical resource states, so for every request:
//
//   - admission parity: dist admits iff the exhaustive search finds a
//     qualified composition;
//   - the phi bound (Eq. 1): dist's chosen composition never beats the
//     exhaustive optimum;
//   - phi agreement: dist's phi equals the kernel's Eq. 1 re-score of
//     the same assignment on the oracle ledger.
//
// Identical states need one step from the driver. Core releases all of
// a request's transient holds at its decision, while dist leaves the
// holds of losing probes to expire after HoldTTL, which outlives the
// gap between requests; those holds shrink what the next request's
// probes see. The driver therefore settles the cluster (Sim.Settle)
// before each oracle-checked request.
type Oracle struct {
	composer *core.Composer
	ledger   *state.Ledger
	kernel   core.Kernel
	mesh     *overlay.Mesh
	catalog  *component.Catalog
}

// NewOracle builds the reference composer over the cluster's substrate.
// The cluster must have been built by NewSim (its clock supplies the
// oracle's virtual time).
func NewOracle(s *Sim) (*Oracle, error) {
	mesh, catalog := s.Cluster.Mesh(), s.Cluster.Catalog()
	counters := &metrics.Counters{}
	start := s.Clock.Now()
	now := func() time.Duration { return s.Clock.Now().Sub(start) }
	ledger := state.NewLedger(mesh, s.cfg.NodeCapacity, now)
	global, err := state.NewGlobal(ledger, mesh, state.DefaultGlobalConfig(), counters)
	if err != nil {
		return nil, err
	}
	env := core.Env{
		Mesh:     mesh,
		Catalog:  catalog,
		Registry: discovery.NewRegistry(catalog, mesh.NumNodes(), counters),
		Ledger:   ledger,
		Global:   global,
		Counters: counters,
		Now:      now,
		Rand:     rand.New(rand.NewSource(mix(s.cfg.Seed ^ 0x09ac1e))),
	}
	ccfg := core.DefaultConfig()
	ccfg.Algorithm = core.AlgOptimal
	// The oracle holds nothing transiently: each request is probed and
	// (when dist admitted it) committed atomically before the next, so
	// holds would only add expiry bookkeeping.
	ccfg.TransientAllocation = false
	composer, err := core.NewComposer(env, ccfg)
	if err != nil {
		return nil, err
	}
	return &Oracle{composer: composer, ledger: ledger, mesh: mesh, catalog: catalog}, nil
}

// Check replays one resolved request through the exhaustive composer
// and verifies admission parity, the phi bound and phi agreement, then
// folds the dist engine's actual decision into the oracle ledger so
// both systems enter the next request with identical committed state.
// comp is nil when dist rejected the request.
func (o *Oracle) Check(req *component.Request, owner int64, comp *dist.Composition) error {
	r := *req
	r.ID = owner
	outcome, err := o.composer.Probe(&r)
	if err != nil {
		return fmt.Errorf("oracle probe for request %d: %w", owner, err)
	}
	if comp == nil {
		if outcome.Success() {
			return fmt.Errorf("request %d: dist rejected but the exhaustive search found a qualified composition (phi=%v)",
				owner, outcome.Best.Phi)
		}
		return nil
	}
	if !outcome.Success() {
		return fmt.Errorf("request %d: dist admitted (phi=%v) but the exhaustive search found no qualified composition",
			owner, comp.Phi)
	}
	if comp.Phi < outcome.Best.Phi-phiSlack {
		return fmt.Errorf("request %d: dist phi %v beats the exhaustive bound %v",
			owner, comp.Phi, outcome.Best.Phi)
	}
	// Sync: commit what dist actually chose (not the oracle's own
	// winner — ties may break differently) so the ledgers agree.
	cc, err := o.lift(&r, comp)
	if err != nil {
		return err
	}
	view := core.LedgerView{Ledger: o.ledger, Owner: state.Owner(owner)}
	phi, ok := o.kernel.Score(&view, core.PhiSum, o.catalog, &r, cc.Components, cc.Routes)
	if !ok {
		return fmt.Errorf("request %d: dist admitted a composition the oracle ledger cannot hold (Eqs. 4-5)", owner)
	}
	if math.Abs(comp.Phi-phi) > phiSlack {
		return fmt.Errorf("request %d: dist phi %v differs from the Eq. 1 re-score %v of the same assignment",
			owner, comp.Phi, phi)
	}
	if err := o.composer.Commit(&core.Outcome{Request: &r, Best: cc}); err != nil {
		return fmt.Errorf("oracle commit of dist composition for request %d: %w", owner, err)
	}
	return nil
}

// Release tears the session down in the oracle ledger, mirroring the
// dist-side release.
func (o *Oracle) Release(owner int64) { o.composer.Release(owner) }

// lift rebuilds a dist composition as a core composition: same
// component assignment, routes resolved per graph edge.
func (o *Oracle) lift(req *component.Request, comp *dist.Composition) (*core.Composition, error) {
	cc := &core.Composition{
		Components: comp.Components,
		QoS:        comp.QoS,
		Phi:        comp.Phi,
	}
	for _, e := range req.Graph.Edges {
		from := o.hostOf(comp.Components[e.From])
		to := o.hostOf(comp.Components[e.To])
		route, ok := o.mesh.RouteBetween(from, to)
		if !ok {
			return nil, fmt.Errorf("request %d: no route %d->%d for committed composition", req.ID, from, to)
		}
		cc.Routes = append(cc.Routes, route)
	}
	return cc, nil
}

func (o *Oracle) hostOf(id component.ComponentID) int {
	return o.catalog.Component(id).Node
}

package main

import (
	"fmt"
	"math"

	"repro/internal/qos"
	"repro/internal/runtime"
	"repro/internal/server"
)

// residualTol is how far a drained cluster's residuals and quota usage
// may sit from their idle values: the ledger and quota table keep
// running float sums, so exact zero is not promised, but drift beyond
// this means resources leaked.
const residualTol = 1e-9

// checkComponents verifies Eq. 2 on a composition: one component per
// requested function, position by position.
func checkComponents(fns []int, comps []server.PlacedComponent) error {
	if len(comps) != len(fns) {
		return fmt.Errorf("eq2: %d components for %d functions", len(comps), len(fns))
	}
	for i, pc := range comps {
		if pc.Position != i || pc.Function != fns[i] {
			return fmt.Errorf("eq2: position %d holds function %d at position %d, want function %d",
				i, pc.Function, pc.Position, fns[i])
		}
	}
	return nil
}

// describedComponents renders a runtime composition the way the wire
// does, so live sessions are checked with the same Eq. 2 rule as
// responses.
func describedComponents(comp runtime.Composition) []server.PlacedComponent {
	out := make([]server.PlacedComponent, len(comp.Components))
	for i, pc := range comp.Components {
		out[i] = server.PlacedComponent{Position: pc.Position, Function: int(pc.Function),
			Component: int(pc.Component), Node: pc.Node}
	}
	return out
}

// checkQoS verifies Eq. 3: the composed end-to-end QoS meets the
// request's delay and loss requirements.
func checkQoS(got qos.Vector, req server.Request) error {
	want := qos.Vector{Delay: req.Delay, LossCost: qos.LossCost(req.LossProb)}
	if r := got.MaxRatio(want); !(r <= 1+residualTol) {
		return fmt.Errorf("eq3: QoS %+v exceeds requirement %+v (ratio %g)", got, want, r)
	}
	return nil
}

// checkDrained verifies that a cluster whose connections have all
// closed holds nothing: no live sessions, every node and link residual
// back at capacity, and no tenant quota usage.
func checkDrained(c *runtime.Cluster) []error {
	var errs []error
	if n := c.ActiveSessions(); n != 0 {
		errs = append(errs, fmt.Errorf("drain: %d sessions still live", n))
	}
	for node := 0; node < c.NumNodes(); node++ {
		res, capa := c.NodeResidual(node), c.NodeCapacity(node)
		if math.Abs(res.CPU-capa.CPU) > residualTol || math.Abs(res.Memory-capa.Memory) > residualTol {
			errs = append(errs, fmt.Errorf("drain: node %d residual %+v, capacity %+v", node, res, capa))
		}
	}
	for link := 0; link < c.NumLinks(); link++ {
		res, capa := c.LinkResidual(link), c.Mesh().Link(link).Capacity
		if math.Abs(res-capa) > residualTol {
			errs = append(errs, fmt.Errorf("drain: link %d residual %g, capacity %g", link, res, capa))
		}
	}
	for _, tenant := range c.Tenants() {
		u := c.TenantUsageFor(tenant)
		if u.Sessions != 0 || math.Abs(u.CPU) > residualTol || math.Abs(u.Memory) > residualTol ||
			math.Abs(u.BandwidthKbps) > residualTol {
			errs = append(errs, fmt.Errorf("drain: tenant %q still charged %+v", tenant, u))
		}
	}
	return errs
}

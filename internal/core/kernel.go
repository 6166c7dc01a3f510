package core

import (
	"math"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
	"repro/internal/state"
)

// StateView is the resource state the composition kernel (this file:
// candidate ranking, demand folding, Eq. 1) scores against, shared by
// core, dist and runtime: what a node and an overlay link offer the
// request, with the request's own reservations credited back.
type StateView interface {
	NodeAvailable(node int) qos.Resources
	LinkAvailable(link int) float64
}

// LedgerView is the ledger's precise state from one owner's
// perspective (Ledger.NodeAvailableFor, LinkAvailableFor).
type LedgerView struct {
	Ledger *state.Ledger
	Owner  state.Owner
}

func (v *LedgerView) NodeAvailable(node int) qos.Resources {
	return v.Ledger.NodeAvailableFor(v.Owner, node)
}
func (v *LedgerView) LinkAvailable(link int) float64 { return v.Ledger.LinkAvailableFor(v.Owner, link) }

// nodeDemand and linkDemand are a composition's total demand on one
// node and one overlay link.
type nodeDemand struct {
	node   int
	amount qos.Resources
}

type linkDemand struct {
	link int
	bw   float64
}

// rankedCand is one coarse-qualified next-hop candidate with its risk D
// (Eq. 9) and congestion W (Eq. 10).
type rankedCand struct {
	id         component.ComponentID
	node       int
	risk, cong float64
}

// Kernel holds the scratch buffers of composition scoring, reset and
// never freed, so steady-state scoring allocates nothing. It is not safe
// for concurrent use; a returned slice is valid until the next call that
// refills it. The zero value is ready to use.
type Kernel struct {
	ranked    []rankedCand
	selected  []component.ComponentID
	nodes     []nodeDemand
	links     []linkDemand
	nodeResid []qos.Resources
	linkResid []float64
}

// ProbeWidth is M = ceil(alpha*k), how many of a function's k candidates
// a hop probes (§3.4); at least one.
func ProbeWidth(alpha float64, k int) int {
	m := int(math.Ceil(alpha * float64(k)))
	if m < 1 {
		m = 1
	}
	return m
}

// HopQoS accumulates a probe's QoS through one hop (Eq. 6): the prefix,
// the virtual links from the assigned predecessors, and the component
// itself.
//
//acp:hotpath
func HopQoS(prefix qos.Vector, routes []overlay.Route, comp qos.Vector) qos.Vector {
	var links qos.Vector
	for i := range routes {
		links = links.Add(routes[i].QoS)
	}
	return prefix.Add(links).Add(comp)
}

// Bottleneck is the least bandwidth view offers along any of routes:
// +Inf when there are none or all are co-located (footnote 4).
//
//acp:hotpath
func Bottleneck(view StateView, routes []overlay.Route) float64 {
	bw := math.Inf(1)
	for i := range routes {
		if routes[i].CoLocated {
			continue
		}
		for _, link := range routes[i].Links {
			bw = math.Min(bw, view.LinkAvailable(link))
		}
	}
	return bw
}

// RouteOrInfeasible returns the virtual link between two overlay nodes,
// or, for a pair only a hand-assembled mesh can leave unreachable, an
// infinite-delay route that fails every QoS check.
func RouteOrInfeasible(mesh *overlay.Mesh, from, to int) overlay.Route {
	r, ok := mesh.RouteBetween(from, to)
	if !ok {
		return overlay.Route{QoS: qos.Vector{Delay: math.Inf(1), LossCost: math.Inf(1)}}
	}
	return r
}

// BeginRanking empties the ranking for a new hop.
func (k *Kernel) BeginRanking() { k.ranked = k.ranked[:0] }

// Qualify applies coarse qualification (Eqs. 6-8) on view to candidate id
// for position pos and, if it qualifies, ranks it by risk D (Eq. 9) and
// congestion W (Eq. 10). prefix is the probe's QoS before this hop and
// routes the virtual links from the assigned predecessors. It returns
// the prune reason, or "" when the candidate joined the ranking.
//
//acp:hotpath
func (k *Kernel) Qualify(view StateView, req *component.Request, pos int, id component.ComponentID,
	cand component.Component, prefix qos.Vector, routes []overlay.Route) obs.Reason {

	if cand.Security < req.MinSecurity {
		return obs.ReasonSecurity
	}
	risk := HopQoS(prefix, routes, cand.QoS).MaxRatio(req.QoSReq)
	if risk > 1 {
		return obs.ReasonQoS
	}
	avail := view.NodeAvailable(cand.Node)
	if !avail.Covers(req.ResReq[pos]) {
		return obs.ReasonResources
	}
	routeBW := Bottleneck(view, routes)
	if routeBW < req.BandwidthReq {
		return obs.ReasonBandwidth
	}
	cong := qos.CongestionTerm(req.ResReq[pos], avail.Sub(req.ResReq[pos])) +
		qos.BandwidthCongestionTerm(req.BandwidthReq, routeBW-req.BandwidthReq)
	k.ranked = append(k.ranked, rankedCand{id: id, node: cand.Node, risk: risk, cong: cong})
	return ""
}

// Select returns the first m of the hop's ranking under policy sel
// (§3.5). When more than m qualified they are stably sorted first, and
// each cut is reported to tr, labelled reqID/parent/pos, as lost on the
// ranking function that cut it.
//
//acp:hotpath
func (k *Kernel) Select(sel SelectionPolicy, m int, tr *obs.Tracer, reqID, parent int64, pos int) []component.ComponentID {
	r := k.ranked
	if len(r) > m {
		// Stable insertion sort: rankings are a handful of entries, and
		// this is sort.SliceStable's algorithm up to 20 entries without
		// its allocations. Risk-then-congestion is not transitive, so the
		// algorithm is part of the policy; the golden parity file pins it.
		for i := 1; i < len(r); i++ {
			for j := i; j > 0 && rankLess(sel, &r[j], &r[j-1]); j-- {
				r[j], r[j-1] = r[j-1], r[j]
			}
		}
		if tr.Enabled() {
			for _, cut := range r[m:] {
				// Outside the similarity band of the last kept candidate a
				// cut lost on risk, inside it on congestion.
				reason := obs.ReasonCongestionRank
				if sel == SelectRiskOnly || sel != SelectCongestionOnly && !similarRisk(cut.risk, r[m-1].risk) {
					reason = obs.ReasonRiskRank
				}
				tr.CandidatePruned(reqID, 0, parent, pos, cut.node, reason)
			}
		}
		r = r[:m]
	}
	out := k.selected[:0]
	for i := range r {
		out = append(out, r[i].id)
	}
	k.selected = out
	return out
}

// rankLess compares two ranked candidates under sel. The paper compares
// risk first and falls back to congestion when risks are similar.
func rankLess(sel SelectionPolicy, a, b *rankedCand) bool {
	switch sel {
	case SelectRiskOnly:
		return a.risk < b.risk
	case SelectCongestionOnly:
		return a.cong < b.cong
	default: // SelectRiskThenCongestion
		if !similarRisk(a.risk, b.risk) {
			return a.risk < b.risk
		}
		return a.cong < b.cong
	}
}

// similarRisk is the §3.5 similarity band: risks within 5% of the larger.
func similarRisk(a, b float64) bool {
	return math.Abs(a-b) <= 0.05*math.Max(a, b)
}

// fold folds a composition (routes: the virtual link per graph edge)
// into per-node and per-overlay-link demands: components sharing a node
// stack (footnote 5), so do virtual links sharing an overlay link, and
// co-located virtual links consume nothing (footnote 4). First-seen
// order keeps every float sum over them deterministic; compositions
// touch a handful of nodes, where a linear scan beats a map.
//
//acp:hotpath
func (k *Kernel) fold(cat *component.Catalog, req *component.Request, comps []component.ComponentID,
	routes []overlay.Route) ([]nodeDemand, []linkDemand) {

	nodes := k.nodes[:0]
	for pos, id := range comps {
		node := cat.Component(id).Node
		if i := nodeIndex(nodes, node); i >= 0 {
			nodes[i].amount = nodes[i].amount.Add(req.ResReq[pos])
		} else {
			nodes = append(nodes, nodeDemand{node: node, amount: req.ResReq[pos]})
		}
	}
	links := k.links[:0]
	for i := range routes {
		if routes[i].CoLocated {
			continue
		}
		for _, link := range routes[i].Links {
			if j := linkIndex(links, link); j >= 0 {
				links[j].bw += req.BandwidthReq
			} else {
				links = append(links, linkDemand{link: link, bw: req.BandwidthReq})
			}
		}
	}
	k.nodes, k.links = nodes, links
	return nodes, links
}

// DemandMaps is fold into the maps ledger and dist commits take.
func (k *Kernel) DemandMaps(cat *component.Catalog, req *component.Request, comps []component.ComponentID,
	routes []overlay.Route) (map[int]qos.Resources, map[int]float64) {

	nodes, links := k.fold(cat, req, comps, routes)
	nodeMap := make(map[int]qos.Resources, len(nodes))
	for _, nd := range nodes {
		nodeMap[nd.node] = nd.amount
	}
	linkMap := make(map[int]float64, len(links))
	for _, ld := range links {
		linkMap[ld.link] = ld.bw
	}
	return nodeMap, linkMap
}

// Score checks that view holds the composition (Eqs. 4-5: residuals
// after all of the request's placements stay non-negative) and returns
// its phi under mode. Eq. 1: each component adds sum_k r_k/(rr_k + r_k),
// rr its node's residual after ALL of the request's placements there
// (footnote 5); each virtual link adds b/(rb + b), rb the bottleneck
// residual after the request's reservations (0 if co-located, footnote
// 8). Node terms sum by position, then link terms by edge: the golden
// parity test pins that arithmetic bit for bit. PhiWeighted scales the
// sum by the request's phi weight; PhiBottleneck is the worst term.
//
//acp:hotpath
func (k *Kernel) Score(view StateView, mode PhiMode, cat *component.Catalog, req *component.Request,
	comps []component.ComponentID, routes []overlay.Route) (float64, bool) {

	nodes, links := k.fold(cat, req, comps, routes)
	nodeResid := k.nodeResid[:0]
	for _, nd := range nodes {
		r := view.NodeAvailable(nd.node).Sub(nd.amount)
		if !r.NonNegative() {
			return 0, false
		}
		nodeResid = append(nodeResid, r)
	}
	k.nodeResid = nodeResid
	linkResid := k.linkResid[:0]
	for _, ld := range links {
		r := view.LinkAvailable(ld.link) - ld.bw
		if r < 0 {
			return 0, false
		}
		linkResid = append(linkResid, r)
	}
	k.linkResid = linkResid

	total, worst := 0.0, 0.0
	for pos, id := range comps {
		term := qos.CongestionTerm(req.ResReq[pos], nodeResid[nodeIndex(nodes, cat.Component(id).Node)])
		total += term
		worst = math.Max(worst, term)
	}
	for i := range routes {
		residual := math.Inf(1)
		if !routes[i].CoLocated {
			for _, link := range routes[i].Links {
				residual = math.Min(residual, linkResid[linkIndex(links, link)])
			}
		}
		term := qos.BandwidthCongestionTerm(req.BandwidthReq, residual)
		total += term
		worst = math.Max(worst, term)
	}
	switch mode {
	case PhiWeighted:
		return total * req.PhiWeight(), true
	case PhiBottleneck:
		return worst, true
	default:
		return total, true
	}
}

func nodeIndex(nodes []nodeDemand, node int) int {
	for i := range nodes {
		if nodes[i].node == node {
			return i
		}
	}
	return -1
}

func linkIndex(links []linkDemand, link int) int {
	for i := range links {
		if links[i].link == link {
			return i
		}
	}
	return -1
}

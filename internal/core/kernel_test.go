package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/qos"
)

// mapView is a StateView over fixed tables.
type mapView struct {
	nodes map[int]qos.Resources
	links map[int]float64
}

func (v mapView) NodeAvailable(node int) qos.Resources { return v.nodes[node] }
func (v mapView) LinkAvailable(link int) float64       { return v.links[link] }

// referenceRank is the ranking spelled with the standard library: a
// sort.SliceStable under the §3.5 comparison written out per policy.
func referenceRank(sel SelectionPolicy, in []rankedCand) []rankedCand {
	out := append([]rankedCand(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch sel {
		case SelectRiskOnly:
			return a.risk < b.risk
		case SelectCongestionOnly:
			return a.cong < b.cong
		}
		if math.Abs(a.risk-b.risk) > 0.05*math.Max(a.risk, b.risk) {
			return a.risk < b.risk
		}
		return a.cong < b.cong
	})
	return out
}

func referenceCutReason(sel SelectionPolicy, cut, lastKept float64) obs.Reason {
	switch sel {
	case SelectRiskOnly:
		return obs.ReasonRiskRank
	case SelectCongestionOnly:
		return obs.ReasonCongestionRank
	}
	if math.Abs(cut-lastKept) > 0.05*math.Max(cut, lastKept) {
		return obs.ReasonRiskRank
	}
	return obs.ReasonCongestionRank
}

// TestKernelSelectMatchesStableSort checks Select against the
// sort.SliceStable reference under every ranking policy: same kept
// candidates in the same order, same cut candidates, same cut reasons.
// Risks either cluster around a few values (ties inside the 5% band) or
// spread over one band-wide range (chains of similar risks whose ends
// are not similar), and congestion values repeat so exact ties occur.
//
// Risk-then-congestion is not a transitive comparison, so two stable
// sorting algorithms can disagree on chained ties; rankings of up to 20
// entries are where sort.SliceStable itself runs insertion sort, the
// kernel's algorithm, so that policy is compared up to that size. The
// transitive policies are compared on larger rankings too.
func TestKernelSelectMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sel := range []SelectionPolicy{SelectRiskThenCongestion, SelectRiskOnly, SelectCongestionOnly} {
		maxN := 40
		if sel == SelectRiskThenCongestion {
			maxN = 20
		}
		for trial := 0; trial < 500; trial++ {
			n := 1 + rng.Intn(maxN)
			m := 1 + rng.Intn(n)
			chained := trial%2 == 1
			in := make([]rankedCand, n)
			for i := range in {
				risk := []float64{0.2, 0.5, 0.8}[rng.Intn(3)] * (1 + 0.04*rng.Float64())
				if chained {
					risk = 0.5 + 0.1*rng.Float64()
				}
				in[i] = rankedCand{id: component.ComponentID(i), node: i, risk: risk, cong: float64(rng.Intn(4)) / 4}
			}

			var k Kernel
			k.BeginRanking()
			k.ranked = append(k.ranked, in...)
			sink := &obs.MemorySink{}
			got := k.Select(sel, m, obs.New(sink), 1, 0, 0)

			want := in
			if n > m {
				want = referenceRank(sel, in)
			}
			kept := m
			if n < m {
				kept = n
			}
			if len(got) != kept {
				t.Fatalf("%v n=%d m=%d: kept %d, want %d", sel, n, m, len(got), kept)
			}
			for i := range got {
				if got[i] != want[i].id {
					t.Fatalf("%v n=%d m=%d: rank %d is %d, want %d", sel, n, m, i, got[i], want[i].id)
				}
			}
			cuts := sink.Events()
			if len(cuts) != n-kept {
				t.Fatalf("%v n=%d m=%d: %d cut events, want %d", sel, n, m, len(cuts), n-kept)
			}
			for i, ev := range cuts {
				cut := want[kept+i]
				reason := referenceCutReason(sel, cut.risk, want[kept-1].risk)
				if ev.Node != cut.node || ev.Reason != reason {
					t.Fatalf("%v n=%d m=%d: cut %d is node %d (%s), want node %d (%s)",
						sel, n, m, i, ev.Node, ev.Reason, cut.node, reason)
				}
			}
		}
	}
}

// TestKernelQualify walks one candidate through each coarse prune in
// order, then checks the risk and congestion it is ranked with.
func TestKernelQualify(t *testing.T) {
	req := &component.Request{
		QoSReq:       qos.Vector{Delay: 100, LossCost: 1},
		ResReq:       []qos.Resources{{CPU: 10, Memory: 100}},
		BandwidthReq: 50,
		MinSecurity:  2,
	}
	cand := component.Component{ID: 3, Node: 4, QoS: qos.Vector{Delay: 20}, Security: 2}
	routes := []overlay.Route{{Links: []int{7}, QoS: qos.Vector{Delay: 10}}}
	view := mapView{
		nodes: map[int]qos.Resources{4: {CPU: 50, Memory: 500}},
		links: map[int]float64{7: 150},
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *component.Component, v *mapView)
		want   obs.Reason
	}{
		{"security", func(c *component.Component, v *mapView) { c.Security = 1 }, obs.ReasonSecurity},
		{"qos", func(c *component.Component, v *mapView) { c.QoS.Delay = 90 }, obs.ReasonQoS},
		{"resources", func(c *component.Component, v *mapView) { v.nodes = map[int]qos.Resources{4: {CPU: 5, Memory: 500}} }, obs.ReasonResources},
		{"bandwidth", func(c *component.Component, v *mapView) { v.links = map[int]float64{7: 40} }, obs.ReasonBandwidth},
	} {
		c, v := cand, view
		tc.mutate(&c, &v)
		var k Kernel
		k.BeginRanking()
		if got := k.Qualify(v, req, 0, c.ID, c, qos.Vector{Delay: 5}, routes); got != tc.want {
			t.Errorf("%s: reason %q, want %q", tc.name, got, tc.want)
		}
		if len(k.ranked) != 0 {
			t.Errorf("%s: pruned candidate was ranked", tc.name)
		}
	}

	var k Kernel
	k.BeginRanking()
	if got := k.Qualify(view, req, 0, cand.ID, cand, qos.Vector{Delay: 5}, routes); got != "" {
		t.Fatalf("qualified candidate pruned: %q", got)
	}
	// Risk: (5+10+20)/100. Congestion: 10/(40+10) + 100/(400+100) on the
	// node, 50/(100+50) on the link.
	want := rankedCand{id: 3, node: 4, risk: 0.35, cong: 0.2 + 0.2 + 1.0/3}
	got := k.ranked[0]
	if got.id != want.id || got.node != want.node || math.Abs(got.risk-want.risk) > 1e-12 || math.Abs(got.cong-want.cong) > 1e-12 {
		t.Errorf("ranked %+v, want %+v", got, want)
	}
}

// TestKernelScorePhiModes scores a two-position composition whose
// components share node 0: the residual behind both is capacity minus
// their summed demand (footnote 5), and their co-located virtual link
// costs nothing (footnote 8).
func TestKernelScorePhiModes(t *testing.T) {
	pcfg := component.DefaultPlacementConfig()
	pcfg.NumFunctions = 2
	cat, err := component.Place(2, pcfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	comps := []component.ComponentID{0, 1}
	for _, id := range comps {
		if err := cat.Move(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	req := &component.Request{
		ResReq:       []qos.Resources{{CPU: 30, Memory: 300}, {CPU: 10, Memory: 100}},
		BandwidthReq: 50,
		Weight:       2,
	}
	routes := []overlay.Route{{CoLocated: true, Capacity: math.Inf(1)}}
	view := mapView{nodes: map[int]qos.Resources{0: {CPU: 100, Memory: 1000}}}

	// Residual {60, 600}: position 0 scores 30/90 + 300/900, position 1
	// scores 10/70 + 100/700.
	first, second := 2.0/3, 2.0/7
	for _, tc := range []struct {
		mode PhiMode
		want float64
	}{
		{PhiSum, first + second},
		{PhiWeighted, 2 * (first + second)},
		{PhiBottleneck, first},
	} {
		var k Kernel
		phi, ok := k.Score(view, tc.mode, cat, req, comps, routes)
		if !ok {
			t.Fatalf("%v: feasible composition rejected", tc.mode)
		}
		if math.Abs(phi-tc.want) > 1e-12 {
			t.Errorf("%v: phi %v, want %v", tc.mode, phi, tc.want)
		}
	}

	var k Kernel
	nodes, links := k.fold(cat, req, comps, routes)
	if len(nodes) != 1 || nodes[0] != (nodeDemand{node: 0, amount: qos.Resources{CPU: 40, Memory: 400}}) || len(links) != 0 {
		t.Errorf("folded demand %v %v, want one node entry of {40 400} and no links", nodes, links)
	}
	// 35 CPU covers either component alone but not both.
	tight := mapView{nodes: map[int]qos.Resources{0: {CPU: 35, Memory: 1000}}}
	if _, ok := k.Score(tight, PhiSum, cat, req, comps, routes); ok {
		t.Error("composition overcommitting its shared node was accepted")
	}
}

// TestBottleneckCoLocated pins footnote 4 in the bandwidth bottleneck:
// co-located routes consume no link, so only the others bound it.
func TestBottleneckCoLocated(t *testing.T) {
	view := mapView{links: map[int]float64{1: 80, 2: 30}}
	colocated := overlay.Route{CoLocated: true, Capacity: math.Inf(1)}
	if got := Bottleneck(view, []overlay.Route{colocated}); !math.IsInf(got, 1) {
		t.Errorf("co-located bottleneck = %v, want +Inf", got)
	}
	if got := Bottleneck(view, []overlay.Route{colocated, {Links: []int{1, 2}}}); got != 30 {
		t.Errorf("bottleneck = %v, want 30", got)
	}

	// Over a live ledger: the least link of a multi-link route, then the
	// drained link once a commit takes all but 10 kbps of it.
	env, _ := testEnv(t, 1)
	var r overlay.Route
	for to := 1; to < env.Mesh.NumNodes() && len(r.Links) < 2; to++ {
		r, _ = env.Mesh.RouteBetween(0, to)
	}
	if len(r.Links) < 2 {
		t.Fatal("no multi-link route from node 0")
	}
	want := math.Inf(1)
	for _, id := range r.Links {
		want = math.Min(want, env.Ledger.LinkAvailable(id))
	}
	if got := Bottleneck(env.Ledger, []overlay.Route{r}); got != want {
		t.Errorf("ledger bottleneck = %v, want %v", got, want)
	}
	first := r.Links[0]
	if err := env.Ledger.CommitSession(1, nil, map[int]float64{first: env.Ledger.LinkAvailable(first) - 10}); err != nil {
		t.Fatal(err)
	}
	if got := Bottleneck(env.Ledger, []overlay.Route{r}); got != 10 {
		t.Errorf("ledger bottleneck after drain = %v, want 10", got)
	}
}

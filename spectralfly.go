// Package spectralfly is a from-scratch Go implementation of the
// SpectralFly interconnection topology — the LPS (Lubotzky–Phillips–
// Sarnak) Ramanujan graphs proposed as HPC networks by Young et al.
// (IPDPS 2022, arXiv:2104.11725) — together with the comparison
// topologies (SlimFly, BundleFly, DragonFly, SkyWalk, Jellyfish), the
// structural analyses (diameter, average distance, girth, spectral gap,
// bisection bandwidth bracketing), a cycle-accounted network simulator
// with minimal/Valiant/UGAL-L routing, the synthetic and Ember-style
// workloads, and the machine-room layout/power/latency cost model from
// the paper's evaluation.
//
// Quick start:
//
//	net, err := spectralfly.LPS(11, 7)    // 168 routers, radix 12
//	m := net.Analyze()                    // diameter 3, µ1 = 0.50, Ramanujan
//	sim, err := net.Simulate(spectralfly.SimConfig{Concentration: 4})
//	stats, err := sim.RunUniform(0.3, 50) // 30% offered load
//
// Analyze returns the whole Table I profile from one eigen-solve,
// including the Cheeger bracket on edge expansion (Metrics.CheegerLower
// and CheegerUpper); Bisection brackets the bisection bandwidth; and
// Centrality returns the vertex and link betweenness profiles from one
// Brandes pass.
//
// Simulate runs single simulations, each exactly the matching
// one-cell NewSweep.
//
// Simulate and NewSweep route over an all-pairs shortest-path table
// whose storage follows from the network's size: dense rows up to
// 4,096 routers, where they route fastest, and packed rows above (on
// an intact LPS network, its Cayley view), so the 12K–40K-router
// Table II rungs fit in memory (DESIGN.md §7).
//
// The heavy lifting lives in the internal packages; this package is the
// stable façade. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-reproduction index.
package spectralfly

import (
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/spectral"
	"repro/internal/topo"
)

// Graph is the underlying immutable CSR graph type.
type Graph = graph.Graph

// Network is a constructed router-level topology.
type Network struct {
	// Name is the paper's notation for the instance, e.g. "LPS(11,7)".
	Name string
	// G is the router graph: vertices are routers, edges bidirectional
	// links.
	G *Graph

	// failedRouters marks dead routers on a degraded network (set by
	// Degrade with a router- or region-kill plan); a Sim's runs drop
	// traffic to and from their endpoints.
	failedRouters []bool
	// degraded marks any damaged copy — including pure link damage,
	// which leaves failedRouters nil. Sweeps reject degraded networks
	// as topology-axis entries (damage is a sweep axis).
	degraded bool
}

func wrap(inst *topo.Instance, err error) (*Network, error) {
	if err != nil {
		return nil, err
	}
	return &Network{Name: inst.Name, G: inst.G}, nil
}

// LPS builds the SpectralFly topology LPS(p, q) for distinct odd primes
// p, q: a (p+1)-regular Cayley graph of PSL(2,F_q) or PGL(2,F_q) that is
// Ramanujan when q > 2√p (Definition 3 of the paper).
func LPS(p, q int64) (*Network, error) { return wrap(topo.LPS(p, q)) }

// SlimFly builds SF(q), the McKay–Miller–Širáň diameter-2 topology on
// 2q² routers of radix (3q-δ)/2, for prime powers q ≡ 0, ±1 (mod 4).
func SlimFly(q int64) (*Network, error) { return wrap(topo.SlimFly(q)) }

// BundleFly builds BF(p, s), the star product of MMS(s) with the Paley
// graph of order p: 2ps² routers of radix (p-1)/2 + (3s-δ)/2,
// diameter 3.
func BundleFly(p, s int64) (*Network, error) { return wrap(topo.BundleFly(p, s)) }

// DragonFly builds the canonical DF(a): a+1 fully-connected groups of a
// routers with one global link per router (radix a), using the
// circulant global arrangement.
func DragonFly(a int) (*Network, error) {
	return wrap(topo.CanonicalDragonFly(a, topo.Circulant))
}

// DragonFlyCustom builds the parameterized DragonFly with a routers per
// group, h global links per router and g groups (the paper's simulation
// uses a=16, h=8, g=69).
func DragonFlyCustom(a, h, g int) (*Network, error) {
	return wrap(topo.DragonFly(a, h, g, topo.Circulant))
}

// Jellyfish builds a random k-regular topology on n routers (the
// randomized baseline of §II).
func Jellyfish(n, k int, seed int64) (*Network, error) {
	return wrap(topo.Jellyfish(n, k, seed))
}

// Xpander builds the Xpander baseline via random 2-lifts of K_{k+1}: a
// k-regular, almost-Ramanujan graph on (k+1)·2^lifts routers (the
// paper's [7]/[20] comparison point).
func Xpander(k, lifts int, seed int64) (*Network, error) {
	return wrap(topo.Xpander(k, lifts, seed))
}

// Metrics are the structural properties reported in Table I, plus the
// Ramanujan and Cheeger diagnostics of §II; see spectral.Metrics.
type Metrics = spectral.Metrics

// Analyze computes the full structural profile of the network. The
// Ramanujan and Cheeger diagnostics apply to regular graphs, and the
// one eigen-solve behind them runs only there; for irregular graphs
// (e.g. after Degrade) they are left zero and Regular is false.
func (n *Network) Analyze() Metrics { return spectral.Profile(n.G, 0) }

// Bisection brackets the bisection bandwidth: a heuristic upper bound
// from multilevel FM partitioning (the paper's METIS role) and the
// Fiedler spectral lower bound µ1·k·n/4 (§IV-d). The lower bound is
// only defined for regular graphs; for irregular graphs (e.g. after
// Degrade) it is reported as 0.
func (n *Network) Bisection(seed int64) (upper int, lower float64) {
	upper = partition.BisectionBandwidth(n.G, partition.Options{Seed: seed})
	return upper, spectral.FiedlerBisectionLowerBound(n.G, seed)
}

// NormalizedBisection returns the bisection cut as a fraction of all
// links, the size-agnostic measure of Figure 4 (on a k-regular
// network the link count is nk/2). A network with no links reports 0.
func (n *Network) NormalizedBisection(seed int64) float64 {
	if n.G.M() == 0 {
		return 0
	}
	upper := partition.BisectionBandwidth(n.G, partition.Options{Seed: seed})
	return float64(upper) / float64(n.G.M())
}

// FaultPlan is a deterministic failure specification: the same plan
// applied to the same network always produces the same damage. Build
// one with PlanRandomLinks, PlanRandomRouters or PlanRegionOutage.
type FaultPlan = fault.Plan

// PlanRandomLinks cuts a uniformly random fraction of links (the
// §IV-A damage model, now usable under live traffic via Degrade).
func PlanRandomLinks(fraction float64, seed int64) FaultPlan {
	return fault.Plan{Kind: fault.Links, Fraction: fraction, Seed: seed}
}

// PlanRandomRouters kills a uniformly random fraction of routers: all
// their links fail and their endpoints are orphaned.
func PlanRandomRouters(fraction float64, seed int64) FaultPlan {
	return fault.Plan{Kind: fault.Routers, Fraction: fraction, Seed: seed}
}

// PlanRegionOutage kills whole chassis of regionSize consecutive
// routers until the given fraction of regions is down — the correlated
// power/cooling-domain failure mode that independent-link models
// understate. regionSize <= 0 defaults to 8.
func PlanRegionOutage(fraction float64, regionSize int, seed int64) FaultPlan {
	return fault.Plan{Kind: fault.Regions, Fraction: fraction, RegionSize: regionSize, Seed: seed}
}

// Degrade applies a fault plan to the network and returns the damaged
// copy: failed links are removed (router ids are preserved; a dead
// router keeps its vertex but loses every link). The result supports
// the full API — Analyze for static structure, Simulate to run traffic
// on the damaged fabric; simulations drop messages whose source or
// destination router is dead and report the loss in Stats.Dropped.
//
// Degrade composes: applying a plan to an already-degraded network
// stacks the damage, merging the new plan's dead routers with the ones
// already down rather than forgetting them. A plan with an unknown
// kind or a fraction outside [0, 1] is an error.
func (n *Network) Degrade(p FaultPlan) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := p.Apply(n.G)
	return &Network{
		Name:          n.Name + "-degraded",
		G:             n.G.RemoveEdges(out.Removed),
		failedRouters: mergeFailed(n.failedRouters, out.DeadRouters),
		degraded:      true,
	}, nil
}

// mergeFailed unions two dead-router masks; either may be nil (no
// deaths from that side). When both are set the result is a fresh
// slice, so a stacked Degrade never mutates a mask the earlier network
// (or a running simulation sharing it read-only) still holds.
func mergeFailed(a, b []bool) []bool {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make([]bool, len(a))
	for i := range a {
		out[i] = a[i] || b[i]
	}
	return out
}

// DistanceHistogram returns the ordered-pair count per hop distance and
// the number of unreachable pairs — the quantitative form of Figure 3
// and §IV-b's distance-concentration discussion.
func (n *Network) DistanceHistogram() (hist []int64, unreachable int64) {
	return n.G.DistanceHistogram()
}

// Discrepancy empirically tests the §II expander-mixing ("discrepancy")
// property on sampled vertex-set pairs; see spectral.Discrepancy.
func (n *Network) Discrepancy(samples int, seed int64) spectral.DiscrepancyStats {
	return spectral.Discrepancy(n.G, samples, seed)
}

// Centrality returns the vertex- and link-betweenness profiles (max,
// mean, max/mean ratio) from one Brandes pass. A flat vertex profile
// means no router-level bottlenecks (§V); a high link ratio identifies
// bottleneck links (DragonFly global links).
func (n *Network) Centrality() (vertex, edge graph.BetweennessProfile) {
	v, e := n.G.Centrality()
	return graph.Summarize(v), graph.Summarize(e)
}

package spectralfly

import (
	"sync"

	"repro/internal/layout"
	"repro/internal/topo"
)

// FloorPlan is a machine-room embedding of a network (§VII): routers
// paired into cabinets on a rectilinear grid, with wire-length, power
// and latency accounting.
type FloorPlan struct {
	net   *Network
	place *layout.Placement

	// profile is the all-pairs hop/wire sweep behind Latency, run on
	// the first call and shared by every switch latency after it.
	profileOnce sync.Once
	profile     *layout.PathProfile
}

// WireStats re-exports the §VII cost summary (Table II columns).
type WireStats = layout.WireStats

// LatencyStats re-exports the Figure 11 latency summary.
type LatencyStats = layout.LatencyStats

// Layout computes a heuristically wire-length-minimal machine-room
// embedding (maximum matching pinned intra-cabinet + annealed QAP).
func (n *Network) Layout(seed int64) *FloorPlan {
	return &FloorPlan{
		net:   n,
		place: layout.Optimize(n.G, layout.Options{Seed: seed}),
	}
}

// SequentialLayout places routers in index order without optimization
// (the reference placement for generated-in-place topologies).
func (n *Network) SequentialLayout() *FloorPlan {
	return &FloorPlan{net: n, place: layout.SequentialPlacement(n.G.N())}
}

// LayoutFAQ embeds the network using the Fast Approximate QAP
// algorithm (Vogelstein et al., the paper's [41]) instead of the
// annealed heuristic — the baseline §VII compares against.
func (n *Network) LayoutFAQ(seed int64) *FloorPlan {
	return &FloorPlan{net: n, place: layout.OptimizeFAQ(n.G, seed, 20)}
}

// Wire summarizes cable lengths, the electrical/optical split (reach in
// meters; 0 uses the 5 m default) and port power.
func (f *FloorPlan) Wire(electricalReach float64) WireStats {
	return layout.Stats(f.net.G, f.place, electricalReach)
}

// PowerPerBandwidth returns mW/(Gb/s): layout power over the bisection
// bandwidth (links × 100 Gb/s), Table II's efficiency metric.
func (f *FloorPlan) PowerPerBandwidth(bisectionLinks int) float64 {
	ws := f.Wire(0)
	return layout.PowerPerBandwidth(ws.PowerW, bisectionLinks)
}

// Latency evaluates end-to-end packet latency (average and maximum over
// router pairs) at a given switch latency in nanoseconds, using 5 ns/m
// cable delay over hop-optimal paths (Figure 11's model).
func (f *FloorPlan) Latency(switchNs float64) LatencyStats {
	f.profileOnce.Do(func() { f.profile = layout.Profile(f.net.G, f.place) })
	return f.profile.Latency(switchNs)
}

// WireLength returns the modeled cable length between two routers.
func (f *FloorPlan) WireLength(u, v int) float64 {
	return f.place.WireLength(u, v)
}

// SkyWalk generates the SkyWalk-style layout baseline of §VII: a
// random topology with n routers of radix k whose links are sampled
// with probability decaying in physical distance on the standard
// machine-room grid. It returns both the network and its natural
// (sequential) floor plan.
func SkyWalk(n, k int, seed int64) (*Network, *FloorPlan, error) {
	place := layout.SequentialPlacement(n)
	inst, err := topo.SkyWalk(n, k, place.RouterDistance, 0, seed)
	if err != nil {
		return nil, nil, err
	}
	net := &Network{Name: inst.Name, G: inst.G}
	return net, &FloorPlan{net: net, place: place}, nil
}

package layout

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/simnet"
)

// This file closes the loop between the §VII machine-room model and
// the simulator: a placement's per-edge cable lengths become the
// simulator's per-port wire latencies (5 ns/m of cable ×
// DefaultCyclesPerNs), so placement quality — QAP heuristic
// vs. FAQ vs. no optimization at all — is measurable in delivered
// packet latency instead of only in meters of wire. See DESIGN.md §12.

// DefaultCyclesPerNs converts wire propagation delay to simulator
// cycles. At 1 cycle/ns the 2 m intra-cabinet wire costs
// 2 × 5 ns/m = 10 cycles — exactly the uniform simnet.LinkLatency, so
// a derived table reduces to the uniform model for intra-cabinet links
// and only stretches the ones the layout actually made longer.
const DefaultCyclesPerNs = 1.0

// LinkLatencies converts a placement into the simulator's per-port
// wire-latency table: each topology edge's §VII cable length ×
// CableDelayNsPerM × DefaultCyclesPerNs, rounded to nearest and
// floored at one cycle. NIC links stay inside the cabinet, so
// endpoints see the intra-cabinet wire. WireLength is symmetric, so
// the table is too — both directions of a cable have its one physical
// length.
func LinkLatencies(g *graph.Graph, p *Placement) *simnet.LinkLatencies {
	n := g.N()
	port := make([][]int64, n)
	for r := 0; r < n; r++ {
		nb := g.Neighbors(r)
		row := make([]int64, len(nb))
		for i, w := range nb {
			row[i] = cableCycles(p.WireLength(r, int(w)))
		}
		port[r] = row
	}
	return &simnet.LinkLatencies{
		Port: port,
		NIC:  cableCycles(IntraCabinetWire),
	}
}

// cableCycles converts a cable length to whole simulator cycles.
func cableCycles(meters float64) int64 {
	c := int64(math.Round(meters * CableDelayNsPerM * DefaultCyclesPerNs))
	if c < 1 {
		c = 1
	}
	return c
}

// PlacementFor returns the placement a mode string selects — the
// shared vocabulary of the sweep Layout axis and the CLI:
// "qap" is the paper's annealed heuristic (Optimize), "faq" the
// Frank–Wolfe/Hungarian planner (OptimizeFAQ), "sequential" index
// order with no optimization.
func PlacementFor(g *graph.Graph, mode string, seed int64) (*Placement, error) {
	switch mode {
	case "qap":
		return Optimize(g, Options{Seed: seed}), nil
	case "faq":
		return OptimizeFAQ(g, seed, 0), nil
	case "sequential":
		return SequentialPlacement(g.N()), nil
	}
	return nil, fmt.Errorf("layout: unknown placement mode %q (want qap, faq or sequential)", mode)
}

package sweep

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// Layout is the grid-wide wire-model knob: when Mode is set, every
// cell's simulator runs with a per-port latency table derived from a
// §VII machine-room placement of its instance — cable length per edge
// × CableDelayNsPerM × layout.DefaultCyclesPerNs — instead of the uniform
// simnet.LinkLatency. Placement quality (QAP vs. FAQ vs. none) then
// shows up in delivered latency, not just meters of wire.
type Layout struct {
	// Mode selects the placement optimizer: "qap" (the paper's annealed
	// heuristic), "faq" (Frank–Wolfe/Hungarian) or "sequential" (index
	// order, no optimization). Empty disables the table entirely, which
	// keeps every cell byte-identical to the uniform-wire model.
	Mode string
	// Seed drives the randomized placement optimizers.
	Seed int64
}

func (l Layout) enabled() bool { return l.Mode != "" }

// deriver memoizes the artifacts the Layout and Tenants axes derive
// per instance for one Run or ContentKeys invocation: the machine-room
// placement and tenant assignment per instance index, and the latency
// table per concrete graph. Fault cells reuse the intact placement —
// damage removes cables, it does not re-rack routers — so their tables
// are rebuilt per damaged graph from the same placement. A deriver is
// confined to the goroutine that resolves execution contexts (cell
// execution is what the engine parallelizes), so plain maps suffice.
type deriver struct {
	g      *Grid
	places map[int]*layout.Placement
	asgs   map[int]*traffic.Assignment
	tables map[*graph.Graph]*simnet.LinkLatencies
}

func (g *Grid) deriver() *deriver {
	return &deriver{
		g:      g,
		places: make(map[int]*layout.Placement),
		asgs:   make(map[int]*traffic.Assignment),
		tables: make(map[*graph.Graph]*simnet.LinkLatencies),
	}
}

// placement returns instance ii's memoized machine-room placement,
// computed on the intact graph.
func (d *deriver) placement(ii int) (*layout.Placement, error) {
	if p, ok := d.places[ii]; ok {
		return p, nil
	}
	inst := d.g.Instances[ii]
	p, err := layout.PlacementFor(inst.Inst.G, d.g.Layout.Mode, d.g.Layout.Seed)
	if err != nil {
		return nil, fmt.Errorf("sweep: layout axis on %s: %w", inst.Name, err)
	}
	d.places[ii] = p
	return p, nil
}

// latencies returns the per-port latency table for a concrete —
// possibly damaged — graph of instance ii, or nil when the Layout axis
// is disabled.
func (d *deriver) latencies(ii int, gr *graph.Graph) (*simnet.LinkLatencies, error) {
	if !d.g.Layout.enabled() {
		return nil, nil
	}
	if t, ok := d.tables[gr]; ok {
		return t, nil
	}
	p, err := d.placement(ii)
	if err != nil {
		return nil, err
	}
	t := layout.LinkLatencies(gr, p)
	d.tables[gr] = t
	return t, nil
}

// assignment returns instance ii's memoized tenant placement, or nil
// when the Tenants axis is empty.
func (d *deriver) assignment(ii int) (*traffic.Assignment, error) {
	if len(d.g.Tenants.Specs) == 0 {
		return nil, nil
	}
	if a, ok := d.asgs[ii]; ok {
		return a, nil
	}
	inst := d.g.Instances[ii]
	a, err := d.g.Tenants.Place(inst.Inst.G, inst.Concentration)
	if err != nil {
		return nil, fmt.Errorf("sweep: tenant axis on %s: %w", inst.Name, err)
	}
	d.asgs[ii] = a
	return a, nil
}

// resolve fills in the artifacts the Layout and Tenants axes derive
// for a point of instance ii: the latency table of its graph and the
// instance's tenant placement.
func (d *deriver) resolve(ii int, pt *point) (err error) {
	if pt.lats, err = d.latencies(ii, pt.g); err != nil {
		return err
	}
	pt.tenants, err = d.assignment(ii)
	return err
}

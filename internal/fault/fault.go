// Package fault generates deterministic failure plans for the
// performance-under-failure study. The paper's §IV-A resilience
// argument — SpectralFly's spectral gap buys graceful degradation — is
// only demonstrated there on static structure (diameter, bisection
// after edge deletion); this package supplies the damage models for
// running *traffic* on a broken network:
//
//   - Links: a uniformly random fraction of links cut (the §IV-A model);
//   - Routers: a uniformly random fraction of routers killed (all
//     incident links cut, the router's endpoints orphaned);
//   - Regions: a chassis-correlated outage — routers grouped into
//     consecutive blocks of RegionSize, whole blocks killed at random,
//     modelling power/cooling domain failures that real machine rooms
//     see and that independent-link models understate.
//
// A Plan is a pure value sampled from a seed: applying the same plan to
// the same graph always yields the same Outcome, so sweep grids can be
// keyed on (plan, graph) and remain bit-identical across worker counts.
// Vertex ids are preserved under damage (killed routers become isolated
// vertices, never renumbered), which is what lets a damaged routing
// table share every unchanged per-destination row with the intact one.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Kind selects a damage model.
type Kind int

const (
	// Links cuts a uniformly random fraction of links.
	Links Kind = iota
	// Routers kills a uniformly random fraction of routers.
	Routers
	// Regions kills whole consecutive blocks of RegionSize routers.
	Regions
)

func (k Kind) String() string {
	switch k {
	case Links:
		return "links"
	case Routers:
		return "routers"
	case Regions:
		return "regions"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalText renders the kind name so JSON experiment output carries
// "links" rather than an enum value.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Plan is a deterministic failure specification. The zero value is a
// no-op plan (no damage).
type Plan struct {
	// Kind is the damage model.
	Kind Kind
	// Fraction is the share of links (Links) or routers (Routers,
	// Regions) to fail, in [0, 1].
	Fraction float64
	// RegionSize is the chassis size for Regions plans; <= 0 defaults
	// to 8 routers per region.
	RegionSize int
	// Seed drives the sampling; the same (Plan, Graph) pair always
	// produces the same Outcome.
	Seed int64
}

// String is the plan's stable identity, usable as a sweep job key
// component.
func (p Plan) String() string {
	if p.Kind == Regions {
		return fmt.Sprintf("%s/%g/r%d/s%d", p.Kind, p.Fraction, p.regionSize(), p.Seed)
	}
	return fmt.Sprintf("%s/%g/s%d", p.Kind, p.Fraction, p.Seed)
}

func (p Plan) regionSize() int {
	if p.RegionSize <= 0 {
		return 8
	}
	return p.RegionSize
}

// Outcome is a plan applied to a concrete graph.
type Outcome struct {
	// Removed lists the failed links (u < v in each pair), ready for
	// graph.RemoveEdges or routing.Table.Repair.
	Removed [][2]int32
	// DeadRouters marks killed routers (nil for pure link plans). A
	// killed router loses all links and cannot source, sink or switch
	// traffic.
	DeadRouters []bool
	// NumDead counts the killed routers.
	NumDead int
}

// Validate reports an error when the plan's Kind is not one of Links,
// Routers or Regions, or its Fraction lies outside [0, 1] (NaN
// included) — exactly the plans Apply panics on.
func (p Plan) Validate() error {
	if p.Kind < Links || p.Kind > Regions {
		return fmt.Errorf("fault: unknown kind %d", int(p.Kind))
	}
	return checkFraction(p.Fraction)
}

func checkFraction(f float64) error {
	if !(f >= 0 && f <= 1) {
		return fmt.Errorf("fault: fraction %v out of [0,1]", f)
	}
	return nil
}

// Apply samples the plan against g. It panics on a plan Validate
// rejects.
func (p Plan) Apply(g *graph.Graph) Outcome {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	rng := rand.New(rand.NewSource(p.Seed))
	switch p.Kind {
	case Links:
		return Outcome{Removed: SampleLinks(g, p.Fraction, rng)}
	case Routers:
		n := g.N()
		k := int(p.Fraction * float64(n))
		dead := pickK(n, k, rng)
		return killRouters(g, dead)
	default: // Regions
		n := g.N()
		size := p.regionSize()
		regions := (n + size - 1) / size
		k := int(p.Fraction * float64(regions))
		dead := make([]int, 0, k*size)
		for _, r := range pickK(regions, k, rng) {
			for v := r * size; v < (r+1)*size && v < n; v++ {
				dead = append(dead, v)
			}
		}
		return killRouters(g, dead)
	}
}

// SampleLinks chooses ⌊fraction·M⌋ links of g uniformly without
// replacement — the §IV-A random link failure — by a partial
// Fisher–Yates shuffle of g.Edges() drawing from rng. Links plans and
// the Fig 5 failure trials both sample through it, so the same rng
// state removes the same links in either. It panics unless fraction
// lies in [0, 1].
func SampleLinks(g *graph.Graph, fraction float64, rng *rand.Rand) [][2]int32 {
	if err := checkFraction(fraction); err != nil {
		panic(err.Error())
	}
	edges := g.Edges()
	k := int(fraction * float64(len(edges)))
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(edges)-i)
		edges[i], edges[j] = edges[j], edges[i]
	}
	return edges[:k]
}

// pickK chooses k distinct ints from [0, n) uniformly, returned in the
// sampled order.
func pickK(n, k int, rng *rand.Rand) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// killRouters builds the Outcome for a set of dead routers: every
// incident link fails.
func killRouters(g *graph.Graph, dead []int) Outcome {
	out := Outcome{DeadRouters: make([]bool, g.N())}
	for _, v := range dead {
		if !out.DeadRouters[v] {
			out.DeadRouters[v] = true
			out.NumDead++
		}
	}
	for _, v := range dead {
		for _, w := range g.Neighbors(v) {
			// Record each failed link once; links between two dead
			// routers are emitted by the lower-id endpoint.
			if !out.DeadRouters[w] || int32(v) < w {
				u, x := int32(v), w
				if u > x {
					u, x = x, u
				}
				out.Removed = append(out.Removed, [2]int32{u, x})
			}
		}
	}
	return out
}

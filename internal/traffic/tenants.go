package traffic

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/simnet"
)

// Multi-tenant workloads: a Tenants value describes several
// co-scheduled jobs — each a synthetic pattern over its own rank
// space — placed on disjoint endpoint sets by a placement policy.
// Place materializes the allocation for a concrete topology; the
// resulting Assignment translates to one simnet.Workload: the owned
// senders, the combined pattern function and the per-tenant load
// table. See DESIGN.md §12.

// PlacementPolicy selects how tenants' endpoint allocations are carved
// out of the machine.
type PlacementPolicy int

const (
	// PlaceSequential packs tenants into consecutive endpoint ranges in
	// topology order — the fragmentation-free baseline.
	PlaceSequential PlacementPolicy = iota
	// PlaceRandom draws each tenant's endpoints uniformly from the
	// remaining free pool (the paper's random node allocation, per
	// tenant), maximizing fragmentation.
	PlaceRandom
	// PlaceClustered allocates each tenant inside its own KWay
	// partition of the router graph, so tenants occupy low-cut regions
	// and cross-tenant link sharing is minimized.
	PlaceClustered
)

func (p PlacementPolicy) String() string {
	switch p {
	case PlaceSequential:
		return "sequential"
	case PlaceRandom:
		return "random"
	case PlaceClustered:
		return "clustered"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// MarshalText renders the policy name for JSON output and specs.
func (p PlacementPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a policy name, accepting exactly the forms
// MarshalText emits.
func (p *PlacementPolicy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "sequential":
		*p = PlaceSequential
	case "random":
		*p = PlaceRandom
	case "clustered":
		*p = PlaceClustered
	default:
		return fmt.Errorf("traffic: unknown placement policy %q (want sequential, random or clustered)", text)
	}
	return nil
}

// TenantSpec describes one co-scheduled job.
type TenantSpec struct {
	// Name labels the tenant in reports ("victim", "aggressor", ...).
	Name string
	// Pattern is the tenant's synthetic workload over its own rank
	// space.
	Pattern Pattern
	// Ranks is the tenant's job size in ranks (= endpoints allocated).
	Ranks int
	// Load is the tenant's offered load as a fraction of endpoint
	// injection bandwidth; 0 runs the tenant at the run's load (a
	// sweep cell's load axis value).
	Load float64
}

// Tenants is the declarative multi-tenant workload: the job list, the
// placement policy carving their endpoint sets, and the seed driving
// every randomized placement choice.
type Tenants struct {
	Specs  []TenantSpec
	Policy PlacementPolicy
	Seed   int64
}

// deriveSeed maps the base seed and a stable per-tenant key to that
// tenant's private placement seed — FNV-1a over the key folded into
// the base, the same derivation as runner.DeriveSeed (duplicated here
// because runner imports traffic). Seeding draws per tenant id is
// what guarantees appending a tenant never perturbs the draws of the
// tenants already placed.
func deriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	s := int64(h.Sum64()&0x7fffffffffffffff) ^ base
	if s == 0 {
		s = base + 1
	}
	return s
}

// Validate checks the spec list against a machine size.
func (ts Tenants) Validate(totalEP int) error {
	if len(ts.Specs) == 0 {
		return fmt.Errorf("traffic: tenant set is empty")
	}
	sum := 0
	for i, sp := range ts.Specs {
		if sp.Ranks <= 0 {
			return fmt.Errorf("traffic: tenant %d (%s) has %d ranks", i, sp.Name, sp.Ranks)
		}
		if !sp.Pattern.Valid() {
			return fmt.Errorf("traffic: tenant %d (%s) has unknown pattern %d", i, sp.Name, int(sp.Pattern))
		}
		if sp.Pattern != Random && !PowerOfTwo(sp.Ranks) {
			return fmt.Errorf("traffic: tenant %d (%s) pattern %s needs a power-of-two rank count, got %d", i, sp.Name, sp.Pattern, sp.Ranks)
		}
		if !(sp.Load >= 0 && sp.Load <= 1) {
			return fmt.Errorf("traffic: tenant %d (%s) load %v out of [0,1]", i, sp.Name, sp.Load)
		}
		sum += sp.Ranks
	}
	if sum > totalEP {
		return fmt.Errorf("traffic: tenants need %d endpoints, machine has %d", sum, totalEP)
	}
	return nil
}

// Assignment is a materialized tenant placement on a concrete
// topology: disjoint per-tenant endpoint lists in rank order plus the
// inverse maps the simulator's pattern closure reads per message.
type Assignment struct {
	Specs []TenantSpec
	// EPOf[t][rank] is the endpoint holding tenant t's rank.
	EPOf [][]int32
	// OfEP[ep] is the tenant owning endpoint ep, or -1.
	OfEP []int32
	// rankOf[ep] is ep's rank within its tenant (-1 when unowned).
	rankOf []int32
	// senders lists the owned endpoints in increasing order.
	senders []int32
}

// Place materializes the tenant set on a topology (g's routers ×
// concentration endpoints), carving disjoint endpoint sets per the
// policy. Placement is deterministic in (Specs, Policy, Seed, g):
// sequential packs ranges in order; random draws each tenant's
// endpoints from the remaining pool with the tenant's derived seed;
// clustered allocates inside partition.KWay parts of the router graph
// (spilling into the nearest free endpoints when a part is too
// small). Within every allocation, ranks are placed sequentially in
// topology order — the same discipline as Mapping.
func (ts Tenants) Place(g *graph.Graph, concentration int) (*Assignment, error) {
	if concentration <= 0 {
		concentration = 1
	}
	totalEP := g.N() * concentration
	if err := ts.Validate(totalEP); err != nil {
		return nil, err
	}
	k := len(ts.Specs)
	a := &Assignment{
		Specs:  ts.Specs,
		EPOf:   make([][]int32, k),
		OfEP:   make([]int32, totalEP),
		rankOf: make([]int32, totalEP),
	}
	for ep := range a.OfEP {
		a.OfEP[ep] = -1
		a.rankOf[ep] = -1
	}
	used := make([]bool, totalEP)
	claim := func(t int, eps []int32) {
		sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
		a.EPOf[t] = eps
		for r, ep := range eps {
			used[ep] = true
			a.OfEP[ep] = int32(t)
			a.rankOf[ep] = int32(r)
		}
	}

	switch ts.Policy {
	case PlaceSequential:
		next := int32(0)
		for t, sp := range ts.Specs {
			eps := make([]int32, sp.Ranks)
			for i := range eps {
				eps[i] = next
				next++
			}
			claim(t, eps)
		}
	case PlaceRandom:
		pool := make([]int32, totalEP)
		for i := range pool {
			pool[i] = int32(i)
		}
		for t, sp := range ts.Specs {
			// A private RNG per tenant id: tenant t's draws depend on the
			// pool the earlier tenants left behind but never on the
			// tenants after it, so extending the tenant list cannot
			// reshuffle existing allocations.
			rng := rand.New(rand.NewSource(deriveSeed(ts.Seed, fmt.Sprintf("tenant/%d", t))))
			eps := make([]int32, sp.Ranks)
			for i := range eps {
				j := rng.Intn(len(pool))
				eps[i] = pool[j]
				pool[j] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
			}
			claim(t, eps)
		}
	case PlaceClustered:
		parts := partition.KWay(g, k, partition.Options{Seed: ts.Seed, Trials: 2})
		for t, sp := range ts.Specs {
			eps := make([]int32, 0, sp.Ranks)
			for r := 0; r < g.N() && len(eps) < sp.Ranks; r++ {
				if int(parts[r]) != t {
					continue
				}
				for c := 0; c < concentration && len(eps) < sp.Ranks; c++ {
					ep := int32(r*concentration + c)
					if !used[ep] {
						eps = append(eps, ep)
						used[ep] = true
					}
				}
			}
			// Spill: an undersized part borrows the lowest free endpoints.
			for ep := int32(0); int(ep) < totalEP && len(eps) < sp.Ranks; ep++ {
				if !used[ep] {
					eps = append(eps, ep)
					used[ep] = true
				}
			}
			claim(t, eps)
		}
	default:
		return nil, fmt.Errorf("traffic: unknown placement policy %d", ts.Policy)
	}
	for ep, t := range a.OfEP {
		if t >= 0 {
			a.senders = append(a.senders, int32(ep))
		}
	}
	return a, nil
}

// Workload returns the tenant set's simnet.Workload: the owned
// endpoints send, each drawing a destination rank from its own
// tenant's pattern over that tenant's rank space and sending to the
// endpoint holding it, at its tenant's load (0 resolves to the run's
// load in simnet).
func (a *Assignment) Workload() simnet.Workload {
	loads := make([]float64, len(a.Specs))
	for t, sp := range a.Specs {
		loads[t] = sp.Load
	}
	return simnet.Workload{
		Senders: a.senders,
		Dest: func(srcEP int, _ int64, rng *rand.Rand) int {
			t := a.OfEP[srcEP]
			eps := a.EPOf[t]
			return int(eps[a.Specs[t].Pattern.Dest(int(a.rankOf[srcEP]), len(eps), rng)])
		},
		Tenants: &simnet.TenantConfig{OfEP: a.OfEP, Load: loads},
	}
}

package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
)

// ringGraph builds a simple cycle on n routers — enough structure for
// placement tests without dragging a topology constructor in.
func ringGraph(n int) *graph.Graph {
	edges := make([][2]int32, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int32{int32(i), int32((i + 1) % n)})
	}
	return graph.FromEdges(n, edges)
}

func testTenants(policy PlacementPolicy) Tenants {
	return Tenants{
		Specs: []TenantSpec{
			{Name: "victim", Pattern: Random, Ranks: 8, Load: 0.05},
			{Name: "aggressor", Pattern: Transpose, Ranks: 16},
		},
		Policy: policy,
		Seed:   7,
	}
}

func TestTenantPlacementDisjointAllPolicies(t *testing.T) {
	g := ringGraph(16)
	for _, policy := range []PlacementPolicy{PlaceSequential, PlaceRandom, PlaceClustered} {
		a, err := testTenants(policy).Place(g, 2)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		seen := map[int32]bool{}
		for ti, eps := range a.EPOf {
			if len(eps) != a.Specs[ti].Ranks {
				t.Errorf("%v: tenant %d got %d endpoints, want %d", policy, ti, len(eps), a.Specs[ti].Ranks)
			}
			for r, ep := range eps {
				if seen[ep] {
					t.Fatalf("%v: endpoint %d allocated twice", policy, ep)
				}
				seen[ep] = true
				if a.OfEP[ep] != int32(ti) || a.rankOf[ep] != int32(r) {
					t.Fatalf("%v: inverse maps inconsistent at ep %d", policy, ep)
				}
			}
		}
		for ep, owner := range a.OfEP {
			if owner == -1 && seen[int32(ep)] {
				t.Fatalf("%v: ep %d allocated but unowned", policy, ep)
			}
		}
	}
}

// TestTenantSeedingIsolation pins the per-tenant DeriveSeed contract:
// appending a tenant to the spec list must not perturb any existing
// tenant's random placement draws.
func TestTenantSeedingIsolation(t *testing.T) {
	g := ringGraph(32)
	base := testTenants(PlaceRandom)
	extended := testTenants(PlaceRandom)
	extended.Specs = append(extended.Specs, TenantSpec{Name: "late", Pattern: Random, Ranks: 8, Load: 0.1})

	a, err := base.Place(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := extended.Place(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range base.Specs {
		if !reflect.DeepEqual(a.EPOf[ti], b.EPOf[ti]) {
			t.Errorf("adding a tenant perturbed tenant %d's draws:\n%v\n%v", ti, a.EPOf[ti], b.EPOf[ti])
		}
	}
	// And placement itself is deterministic.
	c, err := base.Place(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.EPOf, c.EPOf) {
		t.Errorf("random placement not deterministic")
	}
}

func TestTenantPatternStaysInTenant(t *testing.T) {
	g := ringGraph(16)
	a, err := testTenants(PlaceRandom).Place(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Workload()
	// The tenant table is the placement's owner map and the specs'
	// loads, unresolved.
	if w.Tenants == nil || !reflect.DeepEqual(w.Tenants.OfEP, a.OfEP) || !reflect.DeepEqual(w.Tenants.Load, []float64{0.05, 0}) {
		t.Fatalf("tenant table %+v, want OfEP %v and loads [0.05 0]", w.Tenants, a.OfEP)
	}
	// The senders are exactly the owned endpoints, in increasing order.
	var owned []int32
	for ep, tn := range a.OfEP {
		if tn >= 0 {
			owned = append(owned, int32(ep))
		}
	}
	if len(owned) == 0 || !reflect.DeepEqual(w.Senders, owned) {
		t.Fatalf("senders %v, want the owned endpoints %v", w.Senders, owned)
	}
	rng := rand.New(rand.NewSource(1))
	for _, ep := range w.Senders {
		for i := 0; i < 20; i++ {
			dst := w.Dest(int(ep), 0, rng)
			src := a.OfEP[ep]
			if dst < 0 || a.OfEP[dst] != src {
				t.Fatalf("tenant %d ep %d sent to %d: crossed tenant boundary", src, ep, dst)
			}
		}
	}
}

// tenantNet builds a simulator over g at concentration 2 with seed 3.
func tenantNet(t *testing.T, g *graph.Graph) *simnet.Network {
	t.Helper()
	nw, err := simnet.New(simnet.Config{Topo: g, Concentration: 2}, routing.NewTable(g))
	if err != nil {
		t.Fatal(err)
	}
	nw.SetSeed(3)
	return nw
}

// TestTenantConfigResolvesDefaultLoad: a spec with load 0 runs at the
// run's load, so it measures exactly what the same spec at that load
// measures, MemoryBytes included, and not what it measures at another.
func TestTenantConfigResolvesDefaultLoad(t *testing.T) {
	g := ringGraph(16)
	run := func(specLoad, load float64) simnet.Stats {
		ts := testTenants(PlaceSequential)
		ts.Specs[1].Load = specLoad
		a, err := ts.Place(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		return tenantNet(t, g).RunLoad(a.Workload(), load, 6)
	}
	for _, x := range []float64{0.2, 0.4, 1} {
		got, want := run(0, x), run(x, 0.7)
		if !got.Equal(want) {
			t.Errorf("load 0 at run load %v:\n%+v\nwant the spec at load %v:\n%+v", x, got, x, want)
		}
		if other := run(x/2, x); got.Tenants[1].MeanLatency == other.Tenants[1].MeanLatency && got.Makespan == other.Makespan {
			t.Errorf("load 0 at run load %v measures like the spec at load %v", x, x/2)
		}
	}
}

// TestTenantLoadRejectsNaN pins that a NaN tenant load is an error,
// as out-of-range ones are, and that a tenant workload run at a NaN
// load panics like any other run.
func TestTenantLoadRejectsNaN(t *testing.T) {
	ts := testTenants(PlaceSequential)
	ts.Specs[0].Load = math.NaN()
	if err := ts.Validate(64); err == nil {
		t.Error("Validate accepted a NaN tenant load")
	}
	g := ringGraph(16)
	a, err := testTenants(PlaceSequential).Place(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("RunLoad accepted a NaN run load for a tenant workload")
		}
	}()
	tenantNet(t, g).RunLoad(a.Workload(), math.NaN(), 2)
}

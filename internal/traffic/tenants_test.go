package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
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
	w := a.Pattern()
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

func TestTenantConfigResolvesDefaultLoad(t *testing.T) {
	g := ringGraph(16)
	a, err := testTenants(PlaceSequential).Place(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := a.Config(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Load[0] != 0.05 || tc.Load[1] != 0.4 {
		t.Errorf("loads = %v, want [0.05 0.4]", tc.Load)
	}
	if len(tc.OfEP) != 32 {
		t.Errorf("OfEP length %d, want 32", len(tc.OfEP))
	}
}

// TestTenantLoadRejectsNaN pins that a NaN tenant load or default
// load is an error, as out-of-range ones are.
func TestTenantLoadRejectsNaN(t *testing.T) {
	ts := testTenants(PlaceSequential)
	ts.Specs[0].Load = math.NaN()
	if err := ts.Validate(64); err == nil {
		t.Error("Validate accepted a NaN tenant load")
	}
	a, err := testTenants(PlaceSequential).Place(ringGraph(16), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Config(math.NaN()); err == nil {
		t.Error("Config accepted a NaN default load")
	}
}

package routing

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randomGraph builds a random simple graph: with prob ~3/4 a random
// spanning tree plus extra random edges (connected), else pure random
// edges (often disconnected), so repair is exercised on both reachable
// and partitioned instances.
func randomGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n)
	if rng.Intn(4) != 0 {
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			b.AddEdge(perm[i], perm[rng.Intn(i)])
		}
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// sampleRemovals picks a random subset of g's edges, occasionally
// salting in a non-edge pair (Repair documents tolerance for those).
func sampleRemovals(rng *rand.Rand, g *graph.Graph, frac float64) [][2]int32 {
	var removed [][2]int32
	for _, e := range g.Edges() {
		if rng.Float64() < frac {
			if rng.Intn(2) == 0 {
				e[0], e[1] = e[1], e[0] // endpoint order must not matter
			}
			removed = append(removed, e)
		}
	}
	if g.N() >= 2 && rng.Intn(8) == 0 {
		u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
		if u != v && !g.HasEdge(int(u), int(v)) {
			removed = append(removed, [2]int32{u, v})
		}
	}
	return removed
}

// allStores lists every storage backend; the equivalence checks below
// run the repair oracle against each one.
var allStores = []TableOptions{
	{Store: StoreDense},
	{Store: StorePacked},
	{Store: StoreLazy, MaxResident: 8}, // tiny cap so eviction is exercised too
}

// checkRepairEquals asserts the incremental repair is indistinguishable
// from a from-scratch dense build on the damaged graph, for every
// storage backend.
func checkRepairEquals(t *testing.T, g *graph.Graph, removed [][2]int32) {
	t.Helper()
	damaged := g.RemoveEdges(removed)
	want := NewTable(damaged)
	for _, opts := range allStores {
		repaired := NewTableOpts(g, opts).Repair(removed)
		if repaired.G.N() != want.G.N() || repaired.G.M() != want.G.M() {
			t.Fatalf("[%s] damaged graph mismatch: n=%d m=%d want n=%d m=%d",
				opts.Store, repaired.G.N(), repaired.G.M(), want.G.N(), want.G.M())
		}
		n := g.N()
		for d := 0; d < n; d++ {
			for v := 0; v < n; v++ {
				if got, exp := repaired.HopDist(v, d), want.HopDist(v, d); got != exp {
					t.Fatalf("[%s] dist[dest=%d][v=%d] = %d, rebuild says %d (removed %v)",
						opts.Store, d, v, got, exp, removed)
				}
			}
		}
		if repaired.Diameter() != want.Diameter() {
			t.Fatalf("[%s] diameter %d want %d", opts.Store, repaired.Diameter(), want.Diameter())
		}
	}
}

// checkNextHopInvariant asserts every next hop is exactly one hop
// closer to the destination, and that a reachable non-destination
// vertex always has at least one.
func checkNextHopInvariant(t *testing.T, tab *Table) {
	t.Helper()
	n := tab.G.N()
	var buf []int32
	for d := 0; d < n; d++ {
		for v := 0; v < n; v++ {
			dv := tab.HopDist(v, d)
			buf = tab.NextHops(v, d, buf[:0])
			if v == d || dv <= 0 {
				if len(buf) != 0 {
					t.Fatalf("v=%d d=%d dist=%d: unexpected next hops %v", v, d, dv, buf)
				}
				continue
			}
			if len(buf) == 0 {
				t.Fatalf("v=%d d=%d dist=%d: no next hop", v, d, dv)
			}
			if len(buf) != tab.PathDiversity(v, d) {
				t.Fatalf("v=%d d=%d: diversity %d but %d next hops", v, d, tab.PathDiversity(v, d), len(buf))
			}
			for _, w := range buf {
				if tab.HopDist(int(w), d) != dv-1 {
					t.Fatalf("v=%d d=%d: next hop %d at dist %d, want %d",
						v, d, w, tab.HopDist(int(w), d), dv-1)
				}
			}
			// Symmetry of undirected hop distance.
			if tab.HopDist(d, v) != dv {
				t.Fatalf("asymmetric distance: d(%d,%d)=%d but d(%d,%d)=%d",
					v, d, dv, d, v, tab.HopDist(d, v))
			}
		}
	}
}

func fuzzCase(t *testing.T, seed int64, nRaw, extraRaw, fracRaw uint8) (*graph.Graph, [][2]int32) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(nRaw)%40
	extra := int(extraRaw) % (2 * n)
	g := randomGraph(rng, n, extra)
	frac := float64(fracRaw%100) / 100
	return g, sampleRemovals(rng, g, frac)
}

// FuzzRepair is the acceptance fuzz target: for arbitrary random
// graphs and removal sets, Table.Repair must be byte-equivalent to a
// full rebuild on the damaged graph.
func FuzzRepair(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(20))
	f.Add(int64(7), uint8(5), uint8(0), uint8(90))
	f.Add(int64(42), uint8(39), uint8(70), uint8(50))
	f.Add(int64(-3), uint8(2), uint8(4), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw, fracRaw uint8) {
		g, removed := fuzzCase(t, seed, nRaw, extraRaw, fracRaw)
		checkRepairEquals(t, g, removed)
	})
}

// FuzzNewTable checks the structural invariants of freshly built (and
// incrementally repaired) tables: next-hop sets one hop closer,
// non-empty exactly when reachable, symmetric distances.
func FuzzNewTable(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(0))
	f.Add(int64(9), uint8(25), uint8(10), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw, fracRaw uint8) {
		g, removed := fuzzCase(t, seed, nRaw, extraRaw, fracRaw)
		for _, opts := range allStores {
			checkNextHopInvariant(t, NewTableOpts(g, opts))
			checkNextHopInvariant(t, NewTableOpts(g, opts).Repair(removed))
		}
	})
}

// TestRepairMatchesRebuildProperty drives the fuzz body over 1200
// deterministic cases — the ≥1000-case equivalence guarantee promised
// in DESIGN.md, independent of the fuzzing engine.
func TestRepairMatchesRebuildProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is not short")
	}
	for i := 0; i < 1200; i++ {
		seed := int64(i) * 1_000_003
		g, removed := fuzzCase(t, seed, uint8(i%41), uint8(i%97), uint8(i*7%101))
		checkRepairEquals(t, g, removed)
	}
}

// TestRepairSharesUnaffectedVectors pins the perf contract: rows the
// damage cannot touch must be reused (their cells shared), not
// recomputed — that is what makes Repair cheaper than NewTable — for
// dense and packed tables alike.
func TestRepairSharesUnaffectedVectors(t *testing.T) {
	// Path 0-1-2-3 plus a far triangle 4-5-6: cutting a triangle edge
	// cannot affect destinations 0..3 (disconnected components).
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(4, 6)
	g := b.Build()

	for _, store := range []Store{StoreDense, StorePacked} {
		tab := NewTableOpts(g, TableOptions{Store: store})
		rep := tab.Repair([][2]int32{{4, 5}})
		for d := 0; d <= 3; d++ {
			if !sharesRow(rep, tab, d) {
				t.Errorf("[%s] dest %d: row was recomputed despite unaffected component", store, d)
			}
		}
		// Destinations 4 and 5 lose a tight edge (6 does not: the cut
		// edge had slack toward it), so exactly those rows must be
		// fresh.
		for d := 4; d <= 6; d++ {
			if fresh := !sharesRow(rep, tab, d); fresh != (d != 6) {
				t.Errorf("[%s] dest %d: row fresh=%v, want %v", store, d, fresh, d != 6)
			}
		}
		if rep.HopDist(4, 5) != 2 {
			t.Fatalf("[%s] repair missed the cut: d(4,5)=%d want 2", store, rep.HopDist(4, 5))
		}
	}
}

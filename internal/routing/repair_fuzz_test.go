package routing

import (
	"fmt"
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
// run the BFS oracle against each one.
var allStores = []Store{StoreDense, StorePacked, StoreLazy}

// newTestTable builds g's table in store. A lazy table holds at most 8
// rows, so eviction is exercised too.
func newTestTable(g *graph.Graph, store Store) *Table {
	if store == StoreLazy {
		return newLazy(g, 8)
	}
	return NewTableOpts(g, TableOptions{Store: store})
}

// newLazy builds g's lazy table with a working set of limit rows.
func newLazy(g *graph.Graph, limit int) *Table {
	t := NewTableOpts(g, TableOptions{Store: StoreLazy})
	t.lazy.cap = limit
	return t
}

// checkMatchesBFS asserts that tab, which Repair or Restore derived
// from prev, reports toward every destination exactly the distances
// single-source graph.BFS computes on g — an oracle independent of the
// graph.EachBFS kernel every table is built on. For dense and packed
// tables it also pins row sharing: tab shares prev's row toward d
// exactly when that row's distances are unchanged; for lazy ones, that
// tab keeps prev's working-set cap. what names the operation and its
// edge list in failure messages.
func checkMatchesBFS(t *testing.T, what string, tab, prev *Table, g *graph.Graph) {
	t.Helper()
	store := prev.Store()
	if tab.Store() != store {
		t.Fatalf("[%s] %s: result has store %s", store, what, tab.Store())
	}
	if store == StoreLazy && tab.lazy.cap != prev.lazy.cap {
		t.Fatalf("[%s] %s: working-set cap %d, want %d", store, what, tab.lazy.cap, prev.lazy.cap)
	}
	if tab.G.N() != g.N() || tab.G.M() != g.M() {
		t.Fatalf("[%s] %s: graph mismatch: n=%d m=%d want n=%d m=%d",
			store, what, tab.G.N(), tab.G.M(), g.N(), g.M())
	}
	n := g.N()
	dist := make([]int32, n)
	var diam int32
	for d := 0; d < n; d++ {
		g.BFS(d, dist, nil)
		unchanged := true
		for v, want := range dist {
			if got := tab.HopDist(v, d); got != want {
				t.Fatalf("[%s] %s: dist[dest=%d][v=%d] = %d, BFS says %d", store, what, d, v, got, want)
			}
			unchanged = unchanged && prev.HopDist(v, d) == want
			diam = max(diam, want)
		}
		if store != StoreLazy && sharesRow(tab, prev, d) != unchanged {
			t.Fatalf("[%s] %s: dest %d shares its row = %v, but distances unchanged = %v",
				store, what, d, !unchanged, unchanged)
		}
	}
	if tab.Diameter() != int(diam) {
		t.Fatalf("[%s] %s: diameter %d want %d", store, what, tab.Diameter(), diam)
	}
	checkNextHopInvariant(t, tab)
}

// checkRepairEquals asserts Repair matches single-source BFS on the
// damaged graph, for every storage backend.
func checkRepairEquals(t *testing.T, g *graph.Graph, removed [][2]int32) {
	t.Helper()
	damaged := g.RemoveEdges(removed)
	for _, store := range allStores {
		base := newTestTable(g, store)
		checkMatchesBFS(t, fmt.Sprintf("Repair(%v)", removed), base.Repair(removed), base, damaged)
	}
}

// refNextHopSlot is the reference next-hop draw: a reservoir scan of
// v's neighbours over HopDist, one Intn per candidate in slot order.
func refNextHopSlot(tab *Table, v, d int, rng *rand.Rand) int {
	dv := tab.HopDist(v, d)
	if dv <= 0 {
		return -1
	}
	chosen, count := -1, 0
	for i, w := range tab.G.Neighbors(v) {
		if tab.HopDist(int(w), d) == dv-1 {
			count++
			if rng.Intn(count) == 0 {
				chosen = i
			}
		}
	}
	return chosen
}

// checkNextHopInvariant asserts every next hop is exactly one hop
// closer to the destination, that a reachable non-destination vertex
// always has at least one, and that NextHopSlot draws exactly as the
// reference reservoir scan over HopDist: the same slot, and the same
// generator state afterwards.
func checkNextHopInvariant(t *testing.T, tab *Table) {
	t.Helper()
	n := tab.G.N()
	var slots []int32
	got, want := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
	for d := 0; d < n; d++ {
		for v := 0; v < n; v++ {
			if s, ref := tab.NextHopSlot(v, d, got), refNextHopSlot(tab, v, d, want); s != ref {
				t.Fatalf("[%s] v=%d d=%d: NextHopSlot = %d, reference scan %d", tab.Store(), v, d, s, ref)
			}
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("[%s] v=%d d=%d: NextHopSlot consumed the RNG differently from the reference scan", tab.Store(), v, d)
			}
			dv := tab.HopDist(v, d)
			slots = tab.nextHopSlots(v, d, slots[:0])
			if v == d || dv <= 0 {
				if len(slots) != 0 {
					t.Fatalf("v=%d d=%d dist=%d: unexpected next-hop slots %v", v, d, dv, slots)
				}
				continue
			}
			if len(slots) == 0 {
				t.Fatalf("v=%d d=%d dist=%d: no next hop", v, d, dv)
			}
			for _, s := range slots {
				if w := tab.G.Neighbors(v)[s]; tab.HopDist(int(w), d) != dv-1 {
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
// graphs and removal sets, Table.Repair must report exactly the
// distances single-source BFS finds on the damaged graph.
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
// repaired) tables: next-hop sets one hop closer,
// non-empty exactly when reachable, symmetric distances.
func FuzzNewTable(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(0))
	f.Add(int64(9), uint8(25), uint8(10), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw, fracRaw uint8) {
		g, removed := fuzzCase(t, seed, nRaw, extraRaw, fracRaw)
		for _, store := range allStores {
			checkNextHopInvariant(t, newTestTable(g, store))
			checkNextHopInvariant(t, newTestTable(g, store).Repair(removed))
		}
	})
}

// TestRepairMatchesRebuildProperty drives the fuzz body over 1200
// deterministic cases — the ≥1000-case BFS-oracle guarantee promised
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

// TestRepairSharesUnaffectedVectors pins the memory contract: rows the
// damage leaves unchanged must be shared with the old table (their
// cells reused), not encoded afresh, so a repaired table costs memory
// only where distances changed — for dense and packed tables alike.
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

package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// sampleAdditions picks random non-edge pairs of g to insert,
// occasionally salting in an already-present edge (Restore documents
// that it ignores those).
func sampleAdditions(rng *rand.Rand, g *graph.Graph, count int) [][2]int32 {
	var added [][2]int32
	n := g.N()
	if n < 2 {
		return nil
	}
	for i := 0; i < count; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v || g.HasEdge(int(u), int(v)) {
			continue
		}
		if rng.Intn(2) == 0 {
			u, v = v, u // endpoint order must not matter
		}
		added = append(added, [2]int32{u, v})
	}
	if edges := g.Edges(); len(edges) > 0 && rng.Intn(8) == 0 {
		added = append(added, edges[rng.Intn(len(edges))])
	}
	return added
}

// checkRestoreEquals asserts Restore matches single-source BFS on the
// augmented graph, for every storage backend.
func checkRestoreEquals(t *testing.T, g *graph.Graph, added [][2]int32) {
	t.Helper()
	augmented := g.AddEdges(added)
	for _, store := range allStores {
		base := newTestTable(g, store)
		checkMatchesBFS(t, fmt.Sprintf("Restore(%v)", added), base.Restore(added), base, augmented)
	}
}

// checkRepairRestoreRoundTrip is the round-trip property: cut links,
// Repair, bring exactly those links back, Restore — the result must
// match single-source BFS on the original graph, for every storage
// backend. (Removal sets may salt in non-edge pairs, which Repair
// ignores but were never cut, so only the real edges are restored.)
func checkRepairRestoreRoundTrip(t *testing.T, g *graph.Graph, removed [][2]int32) {
	t.Helper()
	var realCut [][2]int32
	for _, e := range removed {
		if g.HasEdge(int(e[0]), int(e[1])) {
			realCut = append(realCut, e)
		}
	}
	for _, store := range allStores {
		repaired := newTestTable(g, store).Repair(removed)
		checkMatchesBFS(t, fmt.Sprintf("cut→Restore(%v)", realCut), repaired.Restore(realCut), repaired, g)
	}
}

// FuzzRepairRestore is the restore-direction acceptance fuzz target:
// Table.Restore must report exactly the distances single-source BFS
// finds on the augmented graph, and a cut→Repair→restore→Restore round
// trip must land exactly back on the original graph's distances.
func FuzzRepairRestore(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(20))
	f.Add(int64(7), uint8(5), uint8(0), uint8(90))
	f.Add(int64(42), uint8(39), uint8(70), uint8(50))
	f.Add(int64(-3), uint8(2), uint8(4), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw, fracRaw uint8) {
		g, removed := fuzzCase(t, seed, nRaw, extraRaw, fracRaw)
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
		checkRestoreEquals(t, g, sampleAdditions(rng, g, int(extraRaw)%8+1))
		checkRepairRestoreRoundTrip(t, g, removed)
	})
}

// TestRestoreMatchesRebuildProperty drives the fuzz body over 800
// deterministic cases, independent of the fuzzing engine — the restore
// analogue of TestRepairMatchesRebuildProperty.
func TestRestoreMatchesRebuildProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is not short")
	}
	for i := 0; i < 800; i++ {
		seed := int64(i)*999_983 + 17
		g, removed := fuzzCase(t, seed, uint8(i%41), uint8(i%97), uint8(i*7%101))
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
		checkRestoreEquals(t, g, sampleAdditions(rng, g, i%8+1))
		checkRepairRestoreRoundTrip(t, g, removed)
	}
}

// TestRestoreSharesUnaffectedVectors pins the memory contract for the
// insertion direction: rows the insertion leaves unchanged must be
// shared with the old table (their cells reused), not encoded afresh,
// for dense and packed tables alike.
func TestRestoreSharesUnaffectedVectors(t *testing.T) {
	// Path 0-1-2-3 plus a far path 4-5, 5-6: inserting 4-6 closes the
	// triangle without touching destinations 0..3.
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	g := b.Build()

	for _, store := range []Store{StoreDense, StorePacked} {
		tab := NewTableOpts(g, TableOptions{Store: store})
		res := tab.Restore([][2]int32{{4, 6}})
		for d := 0; d <= 3; d++ {
			if !sharesRow(res, tab, d) {
				t.Errorf("[%s] dest %d: row was recomputed despite unaffected component", store, d)
			}
		}
		// The insertion shortens 4-6 both ways, so those rows are
		// fresh; destination 5's distances to 4 and 6 were already 1
		// and stay 1, so its row is shared.
		for d := 4; d <= 6; d++ {
			if fresh := !sharesRow(res, tab, d); fresh != (d != 5) {
				t.Errorf("[%s] dest %d: row fresh=%v, want %v", store, d, fresh, d != 5)
			}
		}
		if res.HopDist(4, 6) != 1 {
			t.Fatalf("[%s] restore missed the insertion: d(4,6)=%d want 1", store, res.HopDist(4, 6))
		}
	}
}

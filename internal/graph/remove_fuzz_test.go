package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// checkRemoveEdges asserts that g.RemoveEdges(removed) is the CSR that
// FromEdges builds from the edge-set difference: the same offsets,
// neighbour lists and edge count, and no Cayley view.
func checkRemoveEdges(t *testing.T, g *Graph, removed [][2]int32) {
	t.Helper()
	drop := make(map[[2]int32]bool, len(removed))
	for _, e := range removed {
		drop[[2]int32{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	var kept [][2]int32
	for _, e := range g.Edges() {
		if !drop[e] {
			kept = append(kept, e)
		}
	}
	want := FromEdges(g.N(), kept)
	got := g.RemoveEdges(removed)
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.neigh, want.neigh) || got.M() != want.M() {
		t.Fatalf("RemoveEdges(%v) on %d vertices, %d edges:\ngot  offsets %v neigh %v m %d\nwant offsets %v neigh %v m %d",
			removed, g.N(), g.M(), got.offsets, got.neigh, got.M(), want.offsets, want.neigh, want.M())
	}
	if got.Cayley() != nil {
		t.Fatal("RemoveEdges kept a Cayley view")
	}
}

// removalList draws k removal pairs for g: real edges in either
// orientation, repeats of earlier pairs, random pairs (mostly
// non-edges) and self-pairs.
func removalList(g *Graph, k int, rng *rand.Rand) [][2]int32 {
	edges := g.Edges()
	n := int32(g.N())
	var out [][2]int32
	for range k {
		switch c := rng.Intn(5); {
		case c <= 1 && len(edges) > 0:
			e := edges[rng.Intn(len(edges))]
			if c == 1 {
				e[0], e[1] = e[1], e[0]
			}
			out = append(out, e)
		case c == 2 && len(out) > 0:
			out = append(out, out[rng.Intn(len(out))])
		case c == 3 && n > 0:
			out = append(out, [2]int32{rng.Int31n(n), rng.Int31n(n)})
		case n > 0:
			v := rng.Int31n(n)
			out = append(out, [2]int32{v, v})
		}
	}
	return out
}

// FuzzRemoveEdges checks the CSR filter against a rebuild of the
// edge-set difference on random graphs of up to 200 vertices.
func FuzzRemoveEdges(f *testing.F) {
	f.Add(uint8(10), uint16(30), uint8(5), int64(1))
	f.Add(uint8(200), uint16(1500), uint8(255), int64(2))
	f.Add(uint8(1), uint16(0), uint8(3), int64(3))
	f.Add(uint8(40), uint16(60), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, n uint8, m uint16, k uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(int(n%201), int(m%2048), rng, nil)
		checkRemoveEdges(t, g, removalList(g, int(k), rng))
	})
}

// TestRemoveEdgesCopies pins the edge cases the fuzzer reaches only by
// chance: removing nothing is a plain copy that shares no storage and
// drops a Cayley view, removing every edge leaves the vertices
// isolated, and out-of-range pairs are ignored.
func TestRemoveEdgesCopies(t *testing.T) {
	g := circulant(12, 1, 3)
	cp := g.RemoveEdges(nil)
	checkRemoveEdges(t, g, nil)
	if &cp.neigh[0] == &g.neigh[0] || &cp.offsets[0] == &g.offsets[0] {
		t.Fatal("RemoveEdges(nil) aliases the receiver's CSR")
	}
	checkRemoveEdges(t, g, g.Edges())
	if h := g.RemoveEdges(g.Edges()); h.M() != 0 || h.N() != 12 {
		t.Fatalf("removing every edge left n=%d m=%d", h.N(), h.M())
	}
	if h := g.RemoveEdges([][2]int32{{-1, 0}, {0, 12}, {40, 2}}); h.M() != g.M() {
		t.Fatalf("out-of-range pairs removed edges: m=%d, want %d", h.M(), g.M())
	}
}

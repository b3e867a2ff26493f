package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/pgl"
)

// cayleyOracleCases are the instances the Cayley view is checked on: a
// PSL instance, a PGL one (LPS(7,13)) and the Table II rung-0
// LPS(13,29).
var cayleyOracleCases = [][2]int64{{11, 7}, {7, 13}, {13, 29}}

// TestLPSCayleyView checks the view topo.LPS attaches against the
// group arithmetic of internal/pgl: the generator set is closed under
// inverses, every CSR slot's neighbour is its vertex times the slot's
// generator, Left is left multiplication, Quot is the quotient, and
// the identity's distances answer sampled all-pairs BFS queries.
func TestLPSCayleyView(t *testing.T) {
	for _, pq := range cayleyOracleCases {
		p, q := pq[0], pq[1]
		t.Run(fmt.Sprintf("LPS(%d,%d)", p, q), func(t *testing.T) {
			g := MustLPS(p, q).G
			view := g.Cayley()
			if view == nil {
				t.Fatal("LPS graph carries no Cayley view")
			}
			info, _ := LPSParams(p, q)
			group := pgl.MustGroup(q, info.Kind)
			gens := generatorMatrices(p, q)
			id := group.Identity()
			if view.Identity != id {
				t.Fatalf("view identity %d, group identity %d", view.Identity, id)
			}
			for j, s := range gens {
				if group.IndexOf(s.Mul(gens[view.Inv[j]], q)) != id {
					t.Fatalf("s_%d·s_Inv[%d] is not the identity", j, j)
				}
			}
			n := g.N()
			for v := range n {
				x := group.Element(v)
				gv := view.Gens(v)
				for i, w := range g.Neighbors(v) {
					if got := group.IndexOf(x.Mul(gens[gv[i]], q)); got != int(w) {
						t.Fatalf("slot %d of %d: neighbour %d, but v·s_%d = %d", i, v, w, gv[i], got)
					}
				}
				for j, s := range gens {
					if got := int(view.Left[j][v]); got != group.IndexOf(s.Mul(x, q)) {
						t.Fatalf("Left[%d][%d] = %d, want s_%d·v", j, v, got, j)
					}
				}
			}
			ident := make([]int32, n)
			g.BFS(id, ident, nil)
			dist := make([]int32, n)
			rng := rand.New(rand.NewSource(p*1000 + q))
			for range 8 {
				u := rng.Intn(n)
				g.BFS(u, dist, nil)
				for range 200 {
					v := rng.Intn(n)
					x := view.Quot(u, v)
					if want := group.IndexOf(group.Element(u).Adj(q).Mul(group.Element(v), q)); x != want {
						t.Fatalf("Quot(%d,%d) = %d, want %d", u, v, x, want)
					}
					if ident[x] != dist[v] {
						t.Fatalf("D[Quot(%d,%d)] = %d, BFS distance %d", u, v, ident[x], dist[v])
					}
				}
			}
		})
	}
}

// TestLPSDistanceHistogramShortcut compares the Cayley shortcut of
// DistanceHistogram and AllPairsStats with the all-pairs kernel on a
// copy of the same edges without the view, on a PSL and a PGL
// instance: the counts must be identical.
func TestLPSDistanceHistogramShortcut(t *testing.T) {
	for _, pq := range [][2]int64{{11, 7}, {5, 7}, {7, 13}} {
		g := MustLPS(pq[0], pq[1]).G
		plain := graph.FromEdges(g.N(), g.Edges())
		if plain.Cayley() != nil {
			t.Fatal("FromEdges kept the Cayley view")
		}
		h, u := g.DistanceHistogram()
		wantH, wantU := plain.DistanceHistogram()
		if !slices.Equal(h, wantH) || u != wantU {
			t.Errorf("LPS(%d,%d): shortcut histogram %v (%d unreachable), all-pairs %v (%d)",
				pq[0], pq[1], h, u, wantH, wantU)
		}
		if st, want := g.AllPairsStats(), plain.AllPairsStats(); st != want {
			t.Errorf("LPS(%d,%d): shortcut stats %+v, all-pairs %+v", pq[0], pq[1], st, want)
		}
	}
}

// TestLPSGirthShortcut: Girth on a graph with the Cayley view is one
// BFS from the identity; it must equal the all-sources girth of the
// same edges without the view.
func TestLPSGirthShortcut(t *testing.T) {
	for _, pq := range [][2]int64{{11, 7}, {23, 13}} {
		g := MustLPS(pq[0], pq[1]).G
		plain := graph.FromEdges(g.N(), g.Edges())
		if got, want := g.Girth(), plain.Girth(); got != want || got < 3 {
			t.Errorf("LPS(%d,%d): shortcut girth %d, all-sources %d", pq[0], pq[1], got, want)
		}
	}
}

// TestDerivedGraphsDropCayleyView: a graph derived from an LPS graph by
// damage or insertion is no longer a Cayley graph, so it must not
// carry the view.
func TestDerivedGraphsDropCayleyView(t *testing.T) {
	g := MustLPS(11, 7).G
	e := g.Edges()[0]
	for name, h := range map[string]*graph.Graph{
		"RemoveEdges":     g.RemoveEdges([][2]int32{e}),
		"RemoveEdges nil": g.RemoveEdges(nil),
		"AddEdges":        g.AddEdges([][2]int32{{0, int32(g.N() - 1)}}),
		"AddEdges nil":    g.AddEdges(nil),
	} {
		if h.Cayley() != nil {
			t.Errorf("%s kept the Cayley view", name)
		}
	}
}

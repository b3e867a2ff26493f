package partition

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/spectral"
	"repro/internal/topo"
)

// TestBisectAboveFiedlerBound: the Fiedler bound µ₁·k·n/4 is a lower
// bound on every balanced bisection, so no cut Bisect reports may fall
// below its ceiling. Covers the LPS p, q < 30 instances up to 2,500
// vertices and the Quick SF, BF and DF instances. The 1e-6 slack keeps
// a bound that is an integer up to eigen-solver rounding (LPS(5,7):
// 167.9999999999995) from rounding up past it.
func TestBisectAboveFiedlerBound(t *testing.T) {
	specs := []string{"sf(7)", "sf(17)", "bf(13,3)", "bf(37,3)", "df(12)", "df(24)"}
	for _, f := range topo.LPSFeasible(30) {
		if f.Vertices <= 2500 {
			specs = append(specs, f.Name)
		}
	}
	for _, s := range specs {
		spec, err := topo.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		g := inst.G
		lower := spectral.FiedlerBisectionLowerBound(g, 1)
		cut := Bisect(g, Options{Seed: 1}).Cut
		if float64(cut) < math.Ceil(lower-1e-6) {
			t.Errorf("%s: cut %d below the Fiedler bound %.4f", inst.Name, cut, lower)
		}
	}
}

// TestCoarsenInvariants checks every level of the coarsening hierarchy
// of LPS(11,7), SF(7) and a random graph: coarse adjacency is
// symmetric with equal weights both ways, each neighbour list is
// strictly sorted, no vertex has a self-loop, vertex weight is
// conserved, and edge weight is conserved net of the contracted edges.
func TestCoarsenInvariants(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"lps(11,7)": topo.MustLPS(11, 7).G,
		"sf(7)":     topo.MustSlimFly(7).G,
		"random":    randomConnectedGraph(3),
	}
	for name, g := range graphs {
		rng := rand.New(rand.NewSource(5))
		w := fromGraph(g)
		for level := 0; w.n() > 1; level++ {
			c, cmap := coarsen(w, rng)
			if c.n() >= w.n() {
				break // no edge left to contract
			}
			checkCoarse(t, name, level, w, c, cmap)
			w = c
		}
	}
}

func checkCoarse(t *testing.T, name string, level int, w, c *wgraph, cmap []int32) {
	t.Helper()
	weight := make(map[[2]int32]int64)
	var total, vwt int64
	for v := int32(0); int(v) < c.n(); v++ {
		vwt += c.vwt[v]
		for i := c.offsets[v]; i < c.offsets[v+1]; i++ {
			u := c.neigh[i]
			if u == v {
				t.Fatalf("%s level %d: self-loop at %d", name, level, v)
			}
			if i > c.offsets[v] && c.neigh[i-1] >= u {
				t.Fatalf("%s level %d: neighbours of %d not strictly sorted", name, level, v)
			}
			weight[[2]int32{v, u}] = c.ewt[i]
			total += c.ewt[i]
		}
	}
	for e, x := range weight {
		if weight[[2]int32{e[1], e[0]}] != x {
			t.Fatalf("%s level %d: edge %v has weight %d one way and %d the other",
				name, level, e, x, weight[[2]int32{e[1], e[0]}])
		}
	}
	if vwt != w.totW || c.totW != w.totW {
		t.Fatalf("%s level %d: vertex weight %d (totW %d), fine %d", name, level, vwt, c.totW, w.totW)
	}
	var fine, contracted int64
	for v := 0; v < w.n(); v++ {
		for i := w.offsets[v]; i < w.offsets[v+1]; i++ {
			fine += w.ewt[i]
			if cmap[v] == cmap[w.neigh[i]] {
				contracted += w.ewt[i]
			}
		}
	}
	if total != fine-contracted {
		t.Fatalf("%s level %d: coarse edge weight %d, fine %d minus contracted %d",
			name, level, total, fine, contracted)
	}
}

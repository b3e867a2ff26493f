package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// randomGraph returns a graph on n vertices with m random edge
// proposals (duplicates and self-loops collapse) among the vertices
// that keep[v] admits; keep == nil admits every vertex.
func randomGraph(n, m int, rng *rand.Rand, keep func(v int) bool) *Graph {
	b := NewBuilder(n)
	var verts []int
	for v := range n {
		if keep == nil || keep(v) {
			verts = append(verts, v)
		}
	}
	if len(verts) < 2 {
		return b.Build()
	}
	for range m {
		b.AddEdge(verts[rng.Intn(len(verts))], verts[rng.Intn(len(verts))])
	}
	return b.Build()
}

// circulant returns the Cayley graph of the cyclic group Z_n under the
// generators ±s for s in steps, with its Cayley view: x is joined to
// x ± s, the identity is 0, s·x is x + s and the quotient v⁻¹·w is
// w - v. The steps and their negatives must be distinct and nonzero
// mod n.
func circulant(n int, steps ...int) *Graph {
	var gens []int
	for _, s := range steps {
		gens = append(gens, s, n-s)
	}
	b := NewBuilder(n)
	for x := range n {
		for _, s := range gens {
			b.AddEdge(x, (x+s)%n)
		}
	}
	g := b.Build()
	view := &Cayley{Inv: make([]uint8, len(gens)), Left: make([][]int32, len(gens)),
		Quot: func(v, w int) int { return (w - v + n) % n }}
	for j, s := range gens {
		view.Inv[j] = uint8(j ^ 1)
		view.Left[j] = make([]int32, n)
		for x := range n {
			view.Left[j][x] = int32((x + s) % n)
		}
	}
	for x := range n {
		for _, w := range g.Neighbors(x) {
			view.Gen = append(view.Gen, uint8(slices.Index(gens, (int(w)-x+n)%n)))
		}
	}
	return g.WithCayley(view)
}

// eachBFSCases returns named graphs on n vertices: connected ones (a
// ring, which is deep, and a ring plus random chords, which is
// shallow), one split into two components with no edge between them,
// one where every seventh vertex is isolated, and from 15 vertices a
// circulant carrying its Cayley view, whose distance folds take the
// one-BFS shortcut.
func eachBFSCases(n int, rng *rand.Rand) map[string]*Graph {
	chords := NewBuilder(n)
	for v := range n {
		chords.AddEdge(v, (v+1)%n)
		chords.AddEdge(v, rng.Intn(n))
	}
	half := n / 2
	low := randomGraph(n, 3*n, rng, func(v int) bool { return v < half })
	high := randomGraph(n, 3*n, rng, func(v int) bool { return v >= half })
	cases := map[string]*Graph{
		"ring":     ring(n),
		"chords":   chords.Build(),
		"split":    low.AddEdges(high.Edges()),
		"isolated": randomGraph(n, 2*n, rng, func(v int) bool { return v%7 != 3 }),
	}
	if n >= 15 {
		cases["cayley"] = circulant(n, 1, 7)
	}
	return cases
}

// checkEachBFS fails unless EachBFS hands every source exactly once a
// distance vector equal to BFS's, and DistanceHistogram and
// AllPairsStats agree with folds of those BFS vectors.
func checkEachBFS(t *testing.T, g *Graph) {
	t.Helper()
	n := g.N()
	got := make([][]int32, n)
	calls := make([]atomic.Int32, n)
	g.EachBFS(func() func(int, []int32) {
		return func(s int, dist []int32) {
			if calls[s].Add(1) == 1 {
				got[s] = slices.Clone(dist)
			}
		}
	})
	want := make([]int32, n)
	var wantHist []int64
	var wantUnreach, sum int64
	var diam int
	for s := range n {
		if c := calls[s].Load(); c != 1 {
			t.Fatalf("n=%d: source %d ran %d times", n, s, c)
		}
		g.BFS(s, want, nil)
		if !slices.Equal(got[s], want) {
			t.Fatalf("n=%d: source %d: EachBFS %v, BFS %v", n, s, got[s], want)
		}
		for v, d := range want {
			switch {
			case v == s:
			case d < 0:
				wantUnreach++
			default:
				for int(d) >= len(wantHist) {
					wantHist = append(wantHist, 0)
				}
				wantHist[d]++
				sum += int64(d)
				diam = max(diam, int(d))
			}
		}
	}
	hist, unreach := g.DistanceHistogram()
	if !slices.Equal(hist, wantHist) || unreach != wantUnreach {
		t.Fatalf("n=%d: DistanceHistogram %v (%d unreachable), BFS %v (%d)", n, hist, unreach, wantHist, wantUnreach)
	}
	wantStats := PathStats{Connected: wantUnreach == 0, Diameter: diam}
	if pairs := int64(n)*int64(n-1) - wantUnreach; pairs > 0 {
		wantStats.AvgDist = float64(sum) / float64(pairs)
	}
	if st := g.AllPairsStats(); st != wantStats {
		t.Fatalf("n=%d: AllPairsStats %+v, BFS %+v", n, st, wantStats)
	}
}

// TestCayleyHistogramMatchesKernel compares the Cayley shortcut of
// DistanceHistogram and AllPairsStats with the all-pairs kernel on the
// same edges without the view.
func TestCayleyHistogramMatchesKernel(t *testing.T) {
	for _, n := range []int{15, 64, 129, 300} {
		g := circulant(n, 1, 7)
		plain := FromEdges(n, g.Edges())
		if g.Cayley() == nil || plain.Cayley() != nil {
			t.Fatal("view attached to the wrong graph")
		}
		h, u := g.DistanceHistogram()
		wantH, wantU := plain.DistanceHistogram()
		if !slices.Equal(h, wantH) || u != wantU {
			t.Fatalf("n=%d: shortcut %v (%d unreachable), kernel %v (%d)", n, h, u, wantH, wantU)
		}
		if st, want := g.AllPairsStats(), plain.AllPairsStats(); st != want {
			t.Fatalf("n=%d: shortcut stats %+v, kernel %+v", n, st, want)
		}
	}
}

// TestWithCayleyRejectsMisfit: a view whose arrays do not fit the
// graph is a construction bug, caught when it is attached.
func TestWithCayleyRejectsMisfit(t *testing.T) {
	g := circulant(20, 1, 3)
	good, plain := g.Cayley(), FromEdges(20, g.Edges())
	for name, c := range map[string]Cayley{
		"short Gen":   {Identity: 0, Gen: good.Gen[1:], Inv: good.Inv, Left: good.Left, Quot: good.Quot},
		"identity":    {Identity: 20, Gen: good.Gen, Inv: good.Inv, Left: good.Left, Quot: good.Quot},
		"missing Inv": {Identity: 0, Gen: good.Gen, Inv: good.Inv[1:], Left: good.Left, Quot: good.Quot},
		"short Left":  {Identity: 0, Gen: good.Gen, Inv: good.Inv, Left: [][]int32{good.Left[0][1:], good.Left[1], good.Left[2], good.Left[3]}, Quot: good.Quot},
		"no quotient": {Identity: 0, Gen: good.Gen, Inv: good.Inv, Left: good.Left},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: WithCayley accepted the view", name)
				}
			}()
			plain.WithCayley(&c)
		}()
	}
}

// TestEachBFSMatchesBFS pins the all-pairs kernel to single-source BFS
// across empty, single-batch, exact-batch, partial-last-batch and
// multi-batch sizes, on connected, disconnected and isolated-vertex
// graphs, at one and three workers.
func TestEachBFSMatchesBFS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 63, 64, 65, 128, 129, 300} {
			rng := rand.New(rand.NewSource(int64(n)))
			for name, g := range eachBFSCases(n, rng) {
				t.Run(fmt.Sprintf("procs=%d/n=%d/%s", procs, n, name), func(t *testing.T) {
					checkEachBFS(t, g)
				})
			}
		}
	}
}

// FuzzEachBFS checks the kernel against BFS on random graphs of up to
// 300 vertices, so multi-batch runs and partial last batches are
// covered at every density from isolated vertices to dense.
func FuzzEachBFS(f *testing.F) {
	f.Add(uint16(65), uint16(130), int64(1))
	f.Add(uint16(300), uint16(900), int64(2))
	f.Add(uint16(129), uint16(20), int64(3))
	f.Fuzz(func(t *testing.T, n, m uint16, seed int64) {
		nv := int(n % 301)
		checkEachBFS(t, randomGraph(nv, int(m%2048), rand.New(rand.NewSource(seed)), nil))
	})
}

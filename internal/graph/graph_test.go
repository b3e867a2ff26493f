package graph

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// ring returns the cycle graph C_n.
func ring(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// grid returns the r×c grid graph.
func grid(r, c int) *Graph {
	b := NewBuilder(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				b.AddEdge(id(i, j), id(i+1, j))
			}
			if j+1 < c {
				b.AddEdge(id(i, j), id(i, j+1))
			}
		}
	}
	return b.Build()
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in other order
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop ignored
	b.AddEdge(2, 3)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M=%d want 2", g.M())
	}
	if g.Degree(2) != 1 {
		t.Fatalf("deg(2)=%d want 1", g.Degree(2))
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(3).AddEdge(0, 3)
}

func TestDegreesAndNeighborsSorted(t *testing.T) {
	g := complete(6)
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 5 {
			t.Fatalf("K6 degree %d", g.Degree(v))
		}
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatal("neighbors not sorted")
			}
		}
	}
	if k, ok := g.Regularity(); !ok || k != 5 {
		t.Fatalf("K6 regularity = (%d,%v)", k, ok)
	}
}

func TestHasEdge(t *testing.T) {
	g := ring(5)
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong on C5")
	}
}

func TestBFSOnPath(t *testing.T) {
	b := NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	dist := make([]int32, 5)
	g.BFS(0, dist, nil)
	for i := 0; i < 5; i++ {
		if dist[i] != int32(i) {
			t.Fatalf("dist[%d]=%d", i, dist[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	dist := make([]int32, 4)
	g.BFS(0, dist, nil)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatal("unreachable vertices should have dist -1")
	}
}

func TestConnectivityAndComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	labels, count := g.Components()
	if count != 3 {
		t.Fatalf("components=%d want 3 (triangle path, edge, isolated)", count)
	}
	if labels[0] != labels[1] || labels[0] != labels[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatal("3,4 mislabeled")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatal("5 should be in its own component")
	}
	if !ring(7).IsConnected() {
		t.Fatal("C7 is connected")
	}
}

func TestAllPairsStatsCycle(t *testing.T) {
	// C10: diameter 5, average distance = (2*(1+2+3+4)+5)/9 = 25/9.
	g := ring(10)
	st := g.AllPairsStats()
	if !st.Connected {
		t.Fatal("C10 connected")
	}
	if st.Diameter != 5 {
		t.Fatalf("C10 diameter=%d want 5", st.Diameter)
	}
	want := 25.0 / 9.0
	if diff := st.AvgDist - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("C10 avg dist=%v want %v", st.AvgDist, want)
	}
	for _, e := range st.Ecc {
		if e != 5 {
			t.Fatalf("C10 eccentricity %d want 5", e)
		}
	}
}

func TestAllPairsStatsComplete(t *testing.T) {
	st := complete(8).AllPairsStats()
	if st.Diameter != 1 || st.AvgDist != 1 {
		t.Fatalf("K8 stats: %+v", st)
	}
}

func TestAllPairsStatsDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	st := b.Build().AllPairsStats()
	if st.Connected {
		t.Fatal("should report disconnected")
	}
}

func TestAllPairsStatsGrid(t *testing.T) {
	// 3x4 grid: diameter = 2+3 = 5.
	st := grid(3, 4).AllPairsStats()
	if st.Diameter != 5 {
		t.Fatalf("grid diameter=%d want 5", st.Diameter)
	}
}

func TestGirth(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{ring(3), 3}, {ring(4), 4}, {ring(5), 5}, {ring(17), 17},
		{complete(4), 3}, {grid(3, 3), 4},
	}
	for i, c := range cases {
		if got := c.g.Girth(); got != c.want {
			t.Errorf("case %d: girth=%d want %d", i, got, c.want)
		}
	}
}

func TestGirthForest(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	if g := b.Build().Girth(); g != -1 {
		t.Fatalf("tree girth=%d want -1", g)
	}
}

func TestGirthPetersen(t *testing.T) {
	// The Petersen graph has girth 5.
	b := NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)     // outer C5
		b.AddEdge(5+i, 5+(i+2)%5) // inner pentagram
		b.AddEdge(i, 5+i)         // spokes
	}
	g := b.Build()
	if k, ok := g.Regularity(); !ok || k != 3 {
		t.Fatalf("Petersen should be 3-regular, got (%d,%v)", k, ok)
	}
	if got := g.Girth(); got != 5 {
		t.Fatalf("Petersen girth=%d want 5", got)
	}
	if st := g.AllPairsStats(); st.Diameter != 2 {
		t.Fatalf("Petersen diameter=%d want 2", st.Diameter)
	}
}

func TestGirthFromVertexOnVertexTransitive(t *testing.T) {
	g := ring(9)
	for v := 0; v < 9; v++ {
		if got := g.GirthFromVertex(v); got != 9 {
			t.Fatalf("GirthFromVertex(%d)=%d want 9", v, got)
		}
	}
}

func TestDeleteRandomEdges(t *testing.T) {
	g := complete(20) // 190 edges
	rng := rand.New(rand.NewSource(42))
	h := g.DeleteRandomEdges(0.3, rng)
	want := g.M() - int(0.3*float64(g.M()))
	if h.M() != want {
		t.Fatalf("after deletion M=%d want %d", h.M(), want)
	}
	if h.N() != g.N() {
		t.Fatal("vertex count changed")
	}
	// Every surviving edge must be an original edge.
	for _, e := range h.Edges() {
		if !g.HasEdge(int(e[0]), int(e[1])) {
			t.Fatalf("edge %v not in original", e)
		}
	}
	if x := g.DeleteRandomEdges(0, rng); x.M() != g.M() {
		t.Fatal("deleting 0% changed edge count")
	}
	if x := g.DeleteRandomEdges(1, rng); x.M() != 0 {
		t.Fatal("deleting 100% left edges")
	}
}

func TestDeleteRandomEdgesDeterministicPerSeed(t *testing.T) {
	g := complete(12)
	a := g.DeleteRandomEdges(0.5, rand.New(rand.NewSource(7)))
	b := g.DeleteRandomEdges(0.5, rand.New(rand.NewSource(7)))
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatal("different sizes for same seed")
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("different edges for same seed")
		}
	}
}

func TestSubgraph(t *testing.T) {
	g := complete(6)
	sub, remap := g.Subgraph([]int{1, 3, 5})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("K6 induced on 3 vertices: n=%d m=%d", sub.N(), sub.M())
	}
	if remap[0] != -1 || remap[1] != 0 || remap[3] != 1 || remap[5] != 2 {
		t.Fatalf("remap wrong: %v", remap)
	}
}

func TestMulVec(t *testing.T) {
	g := ring(4)
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	g.MulVec(dst, src)
	want := []float64{2 + 4, 1 + 3, 2 + 4, 1 + 3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVec[%d]=%v want %v", i, dst[i], want[i])
		}
	}
}

func TestCutSize(t *testing.T) {
	g := ring(6)
	side := []uint8{0, 0, 0, 1, 1, 1}
	if cut := g.CutSize(side); cut != 2 {
		t.Fatalf("C6 half-split cut=%d want 2", cut)
	}
}

func TestDegreeHistogram(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	h := b.Build().DegreeHistogram()
	if h[0] != 1 || h[1] != 2 || h[2] != 1 {
		t.Fatalf("histogram %v", h)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		h := FromEdges(n, g.Edges())
		if g.N() != h.N() || g.M() != h.M() {
			return false
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != h.Degree(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHandshakeProperty(t *testing.T) {
	// Sum of degrees equals 2M for random graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBFSDistanceTriangleInequalityProperty(t *testing.T) {
	// d(s,v) <= d(s,u) + 1 for every edge (u,v).
	g := grid(5, 5)
	dist := make([]int32, g.N())
	g.BFS(7, dist, nil)
	for _, e := range g.Edges() {
		du, dv := dist[e[0]], dist[e[1]]
		if du-dv > 1 || dv-du > 1 {
			t.Fatalf("BFS dist differs by >1 across edge %v", e)
		}
	}
}

// TestEachSourceRunsEverySourceOnce pins the shared per-source loop:
// every source runs exactly once, on min(GOMAXPROCS, n) workers.
func TestEachSourceRunsEverySourceOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 100} {
			runs := make([]atomic.Int32, n)
			var workers atomic.Int32
			EachSource(n, func() func(int) {
				workers.Add(1)
				return func(s int) { runs[s].Add(1) }
			})
			if got := int(workers.Load()); got != min(procs, n) {
				t.Errorf("GOMAXPROCS=%d n=%d: %d workers, want %d", procs, n, got, min(procs, n))
			}
			for s := range runs {
				if c := runs[s].Load(); c != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: source %d ran %d times", procs, n, s, c)
				}
			}
		}
	}
}

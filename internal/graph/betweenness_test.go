package graph

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// vertexCentrality is the vertex half of Centrality.
func vertexCentrality(g *Graph) []float64 {
	v, _ := g.Centrality()
	return v
}

func approxF(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v want %v", msg, got, want)
	}
}

func TestBetweennessPathGraph(t *testing.T) {
	// Path 0-1-2: vertex 1 lies on the single shortest path between 0
	// and 2 in both directions → bc[1] = 2 (ordered pairs).
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	bc := vertexCentrality(b.Build())
	approxF(t, bc[0], 0, 1e-12, "bc[0]")
	approxF(t, bc[1], 2, 1e-12, "bc[1]")
	approxF(t, bc[2], 0, 1e-12, "bc[2]")
}

func TestBetweennessStar(t *testing.T) {
	// Star K_{1,4}: hub on all 4·3 = 12 ordered leaf pairs.
	b := NewBuilder(5)
	for leaf := 1; leaf < 5; leaf++ {
		b.AddEdge(0, leaf)
	}
	bc := vertexCentrality(b.Build())
	approxF(t, bc[0], 12, 1e-12, "hub betweenness")
	for leaf := 1; leaf < 5; leaf++ {
		approxF(t, bc[leaf], 0, 1e-12, "leaf betweenness")
	}
}

func TestBetweennessCycleUniform(t *testing.T) {
	// Vertex-transitive: all scores equal.
	g := ring(9)
	bc := vertexCentrality(g)
	for v := 1; v < 9; v++ {
		approxF(t, bc[v], bc[0], 1e-9, "cycle uniformity")
	}
	p := Summarize(bc)
	approxF(t, p.Ratio, 1, 1e-9, "cycle bottleneck factor")
}

func TestBetweennessSplitPaths(t *testing.T) {
	// C4 (0-1-2-3-0): pairs (0,2) and (1,3) each have two shortest
	// paths, so each intermediate vertex gets 1/2 per direction = 1.
	bc := vertexCentrality(ring(4))
	for v := 0; v < 4; v++ {
		approxF(t, bc[v], 1, 1e-12, "C4 split credit")
	}
}

func TestBetweennessCompleteGraphZero(t *testing.T) {
	bc := vertexCentrality(complete(6))
	for v, x := range bc {
		approxF(t, x, 0, 1e-12, "K6 bc should be 0")
		_ = v
	}
}

func TestBetweennessSumIdentity(t *testing.T) {
	// Sum over vertices of bc = sum over ordered pairs (s,t) of
	// (number of intermediate vertices on shortest paths, weighted) =
	// sum over pairs of (d(s,t) - 1) when shortest paths are unique.
	// Use a tree (unique paths): star with tails.
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 4)
	b.AddEdge(0, 5)
	b.AddEdge(5, 6)
	g := b.Build()
	bc := vertexCentrality(g)
	var sum float64
	for _, x := range bc {
		sum += x
	}
	st := g.AllPairsStats()
	pairs := float64(g.N() * (g.N() - 1))
	wantSum := st.AvgDist*pairs - pairs
	approxF(t, sum, wantSum, 1e-9, "Brandes sum identity on tree")
}

func TestBetweennessDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	bc := vertexCentrality(b.Build())
	for _, x := range bc {
		approxF(t, x, 0, 1e-12, "disconnected pairs contribute nothing")
	}
}

// TestBetweennessIndependentOfGOMAXPROCS: sources fold in fixed
// blocks in block order, so vertex and edge betweenness are
// bit-identical whatever the worker count. The graph is irregular, so
// a different summation order would change low-order bits.
func TestBetweennessIndependentOfGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder(300)
	for i := 0; i < 900; i++ {
		b.AddEdge(rng.Intn(300), rng.Intn(300))
	}
	g := b.Build()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	vOne, eOne := g.Centrality()
	runtime.GOMAXPROCS(4)
	for rep := 0; rep < 3; rep++ {
		v, e := g.Centrality()
		if !slices.Equal(v, vOne) {
			t.Fatal("vertex betweenness differs between GOMAXPROCS 1 and 4")
		}
		if !slices.Equal(e, eOne) {
			t.Fatal("edge betweenness differs between GOMAXPROCS 1 and 4")
		}
	}
}

// bruteCentrality is the per-pair reference for Centrality. It counts
// shortest paths σ(x, y) between every pair level by level, then
// credits each ordered pair (s, t) of distinct mutually reachable
// vertices to every vertex v with d(s,v)+d(v,t) = d(s,t), by
// σ(s,v)·σ(v,t)/σ(s,t), and to every edge {a, b} crossed as a→b on a
// shortest path, by σ(s,a)·σ(b,t)/σ(s,t).
func bruteCentrality(g *Graph) (vertex, edge []float64) {
	n := g.N()
	dist := make([][]int32, n)
	sigma := make([][]float64, n)
	for s := range n {
		dist[s] = make([]int32, n)
		g.BFS(s, dist[s], nil)
		sigma[s] = make([]float64, n)
		sigma[s][s] = 1
		for d := int32(1); d < int32(n); d++ {
			for v := range n {
				if dist[s][v] != d {
					continue
				}
				for _, u := range g.Neighbors(v) {
					if dist[s][u] == d-1 {
						sigma[s][v] += sigma[s][u]
					}
				}
			}
		}
	}
	edges := g.Edges()
	vertex = make([]float64, n)
	edge = make([]float64, len(edges))
	for s := range n {
		for t := range n {
			d := dist[s][t]
			if s == t || d < 0 {
				continue
			}
			for v := range n {
				if v != s && v != t && dist[s][v] >= 0 && dist[s][v]+dist[v][t] == d {
					vertex[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
			for i, e := range edges {
				for _, ab := range [][2]int32{e, {e[1], e[0]}} {
					a, b := ab[0], ab[1]
					if dist[s][a] >= 0 && dist[s][a]+1+dist[b][t] == d {
						edge[i] += sigma[s][a] * sigma[b][t] / sigma[s][t]
					}
				}
			}
		}
	}
	return vertex, edge
}

// checkCentrality fails unless Centrality matches the per-pair
// reference on g, and its edge scores satisfy the path-length
// identity: every shortest s–t path crosses d(s,t) edges and carries
// weight 1/σ(s,t), so the edge scores sum to the total distance over
// mutually reachable ordered pairs.
func checkCentrality(t *testing.T, g *Graph) {
	t.Helper()
	vertex, edge := g.Centrality()
	wantV, wantE := bruteCentrality(g)
	if len(vertex) != len(wantV) || len(edge) != len(wantE) {
		t.Fatalf("lengths %d/%d, want %d/%d", len(vertex), len(edge), len(wantV), len(wantE))
	}
	close := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	for v := range vertex {
		if !close(vertex[v], wantV[v]) {
			t.Fatalf("vertex %d: got %v, reference %v", v, vertex[v], wantV[v])
		}
	}
	for i, e := range g.Edges() {
		if !close(edge[i], wantE[i]) {
			t.Fatalf("edge %v: got %v, reference %v", e, edge[i], wantE[i])
		}
	}
	var sum, pathSum float64
	for _, x := range edge {
		sum += x
	}
	dist := make([]int32, g.N())
	for s := range g.N() {
		g.BFS(s, dist, nil)
		for _, d := range dist {
			if d > 0 {
				pathSum += float64(d)
			}
		}
	}
	if !close(sum, pathSum) {
		t.Fatalf("edge scores sum to %v, want the distance total %v", sum, pathSum)
	}
}

// TestCentralityMatchesReference pins the single Brandes pass to the
// per-pair reference on connected, disconnected and isolated-vertex
// graphs and on graphs degraded by random link removal.
func TestCentralityMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 13, 40} {
		rng := rand.New(rand.NewSource(int64(n)))
		cases := eachBFSCases(n, rng)
		cases["grid"] = grid(n/5+1, 5)
		cases["complete"] = complete(min(n, 9))
		for name, g := range maps.Clone(cases) {
			edges := g.Edges()
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			cases[name+"-degraded"] = g.RemoveEdges(edges[:len(edges)/4])
		}
		for name, g := range cases {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) { checkCentrality(t, g) })
		}
	}
}

// FuzzCentrality checks the single pass against the per-pair
// reference on random graphs of up to 48 vertices, from isolated
// vertices to dense.
func FuzzCentrality(f *testing.F) {
	f.Add(uint8(12), uint16(18), int64(1))
	f.Add(uint8(40), uint16(60), int64(2))
	f.Add(uint8(33), uint16(400), int64(3))
	f.Fuzz(func(t *testing.T, n uint8, m uint16, seed int64) {
		checkCentrality(t, randomGraph(int(n%49), int(m%512), rand.New(rand.NewSource(seed)), nil))
	})
}

// Package graph provides the undirected-graph substrate used throughout
// the SpectralFly reproduction: a compact CSR (compressed sparse row)
// representation plus the structural measurements the paper reports —
// diameter, average shortest-path length, girth, connectivity — and the
// seeded random edge-failure sampling of §IV-A. All-pairs computations
// fan out across GOMAXPROCS workers through one per-source loop,
// EachSource, which the routing and layout packages share.
package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Graph is an immutable simple undirected graph in CSR form. Vertices
// are 0..N()-1. The zero value is an empty graph.
type Graph struct {
	offsets []int32 // len n+1
	neigh   []int32 // len 2m, sorted within each vertex's slice
	m       int     // number of undirected edges
}

// Builder accumulates edges for a Graph. Self-loops are rejected and
// duplicate edges are deduplicated at Build time (the paper's topologies
// are all simple graphs; the LPS construction for very small q can
// propose repeats, which collapse to simple edges).
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
// It panics if an endpoint is out of range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build finalizes the graph, deduplicating edges.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	dedup := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			dedup = append(dedup, e)
		}
	}
	return FromEdges(b.n, dedup)
}

// FromEdges builds a graph from a deduplicated edge list. Edges must be
// distinct with u != v (in any order); otherwise behaviour matches
// feeding them through a Builder.
func FromEdges(n int, edges [][2]int32) *Graph {
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i]
	}
	neigh := make([]int32, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		u, v := e[0], e[1]
		neigh[cursor[u]] = v
		cursor[u]++
		neigh[cursor[v]] = u
		cursor[v]++
	}
	g := &Graph{offsets: offsets, neigh: neigh, m: len(edges)}
	for v := 0; v < n; v++ {
		s := g.Neighbors(v)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor slice of v. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.neigh[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u,v} is an edge, via binary search.
func (g *Graph) HasEdge(u, v int) bool {
	s := g.Neighbors(u)
	i := sort.Search(len(s), func(i int) bool { return s[i] >= int32(v) })
	return i < len(s) && s[i] == int32(v)
}

// Edges returns the edge list with u < v in each pair.
func (g *Graph) Edges() [][2]int32 {
	out := make([][2]int32, 0, g.m)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				out = append(out, [2]int32{int32(u), v})
			}
		}
	}
	return out
}

// Regularity returns (k, true) if the graph is k-regular, else (0, false).
// The empty graph is reported as 0-regular.
func (g *Graph) Regularity() (int, bool) {
	n := g.N()
	if n == 0 {
		return 0, true
	}
	k := g.Degree(0)
	for v := 1; v < n; v++ {
		if g.Degree(v) != k {
			return 0, false
		}
	}
	return k, true
}

// BFS computes hop distances from src into dist, which must have length
// N(). Unreachable vertices get -1. The provided queue buffer (length
// >= N()) avoids per-call allocation; pass nil to allocate internally.
func (g *Graph) BFS(src int, dist []int32, queue []int32) {
	if queue == nil {
		queue = make([]int32, g.N())
	}
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = int32(src)
	head, tail := 0, 1
	for head < tail {
		u := queue[head]
		head++
		du := dist[u]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue[tail] = v
				tail++
			}
		}
	}
}

// IsConnected reports whether the graph is connected (the empty graph
// counts as connected).
func (g *Graph) IsConnected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	dist := make([]int32, n)
	g.BFS(0, dist, nil)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Components labels each vertex with a component id in [0, count).
func (g *Graph) Components() (labels []int32, count int) {
	n := g.N()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, n)
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[s] = id
		queue[0] = int32(s)
		head, tail := 0, 1
		for head < tail {
			u := queue[head]
			head++
			for _, v := range g.Neighbors(int(u)) {
				if labels[v] < 0 {
					labels[v] = id
					queue[tail] = v
					tail++
				}
			}
		}
	}
	return labels, count
}

// PathStats holds all-pairs shortest-path summary statistics.
type PathStats struct {
	Connected bool
	Diameter  int     // max finite distance (undefined if !Connected)
	AvgDist   float64 // mean distance over ordered pairs of distinct vertices
	Ecc       []int32 // per-vertex eccentricity (-1 if vertex sees unreachable vertices)
}

// EachSource runs one job per source vertex s in 0..n-1 on up to
// GOMAXPROCS goroutines, handing sources out dynamically. newWorker is
// called once on each worker goroutine and returns that goroutine's
// job, closed over private scratch; allocating the scratch there keeps
// workers' hot state off each other's cache lines. Since any worker may
// take any source, a job writes only its worker's private state or,
// once per source, that source's slots; callers fold those after
// EachSource returns, in source order wherever the fold is
// floating-point, so results never depend on scheduling.
func EachSource(n int, newWorker func() func(s int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := newWorker()
			for s := int(next.Add(1)) - 1; s < n; s = int(next.Add(1)) - 1 {
				job(s)
			}
		}()
	}
	wg.Wait()
}

// AllPairsStats runs BFS from every vertex in parallel and aggregates
// diameter, mean distance and eccentricities. For disconnected graphs
// Connected=false and Diameter/AvgDist describe only reachable pairs.
func (g *Graph) AllPairsStats() PathStats {
	n := g.N()
	st := PathStats{Connected: true, Ecc: make([]int32, n)}
	if n <= 1 {
		return st
	}
	sums := make([][2]int64, n) // per source: distance sum, reachable targets
	EachSource(n, func() func(int) {
		dist := make([]int32, n)
		queue := make([]int32, n)
		return func(s int) {
			g.BFS(s, dist, queue)
			var ecc int32
			var sum, reached int64
			for v, d := range dist {
				if v == s {
					continue
				}
				if d < 0 {
					ecc = -1
					continue
				}
				if ecc >= 0 && d > ecc {
					ecc = d
				}
				sum += int64(d)
				reached++
			}
			st.Ecc[s], sums[s] = ecc, [2]int64{sum, reached}
		}
	})
	var sum, pairs int64
	for s, ecc := range st.Ecc {
		sum += sums[s][0]
		pairs += sums[s][1]
		if ecc < 0 {
			st.Connected = false
		}
		st.Diameter = max(st.Diameter, int(ecc))
	}
	if pairs > 0 {
		st.AvgDist = float64(sum) / float64(pairs)
	}
	return st
}

// Girth returns the length of the shortest cycle, or -1 for forests.
// It runs a truncated BFS from every root (in parallel), using the
// classical bound: a non-tree edge seen at BFS levels (d_u, d_w) closes
// a cycle of length <= d_u + d_w + 1 through the root, and the minimum
// over all roots is exact.
func (g *Graph) Girth() int {
	n := g.N()
	var mu sync.Mutex
	var bests []*int32 // one per worker: the shortest cycle it has seen
	EachSource(n, func() func(int) {
		dist := make([]int32, n)
		parent := make([]int32, n)
		queue := make([]int32, n)
		best := int32(n + 1)
		mu.Lock()
		bests = append(bests, &best)
		mu.Unlock()
		return func(s int) {
			best = girthFromRoot(g, s, best, dist, parent, queue)
		}
	})
	ans := int32(n + 1)
	for _, b := range bests {
		ans = min(ans, *b)
	}
	if ans > int32(n) {
		return -1
	}
	return int(ans)
}

// GirthFromVertex computes the shortest cycle length detectable from a
// single BFS root. For vertex-transitive graphs (LPS, SlimFly) this
// equals the girth and is much cheaper than Girth.
func (g *Graph) GirthFromVertex(s int) int {
	n := g.N()
	dist := make([]int32, n)
	parent := make([]int32, n)
	queue := make([]int32, n)
	b := girthFromRoot(g, s, int32(n+1), dist, parent, queue)
	if b > int32(n) {
		return -1
	}
	return int(b)
}

func girthFromRoot(g *Graph, s int, bound int32, dist, parent, queue []int32) int32 {
	for i := range dist {
		dist[i] = -1
	}
	best := bound
	dist[s] = 0
	parent[s] = -1
	queue[0] = int32(s)
	head, tail := 0, 1
	for head < tail {
		u := queue[head]
		head++
		du := dist[u]
		if 2*du+1 >= best {
			break // deeper levels cannot improve
		}
		for _, v := range g.Neighbors(int(u)) {
			if v == parent[u] {
				continue
			}
			if dist[v] < 0 {
				dist[v] = du + 1
				parent[v] = u
				queue[tail] = v
				tail++
			} else {
				// Non-tree edge: cycle through root of length ≤ du+dv+1.
				if c := du + dist[v] + 1; c < best {
					best = c
				}
			}
		}
	}
	return best
}

// DeleteRandomEdges returns a copy of g with ⌊fraction·M⌋ edges removed,
// chosen uniformly without replacement using rng. fraction must lie in
// [0, 1].
func (g *Graph) DeleteRandomEdges(fraction float64, rng *rand.Rand) *Graph {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("graph: fraction %v out of [0,1]", fraction))
	}
	edges := g.Edges()
	k := int(fraction * float64(len(edges)))
	// Partial Fisher–Yates: move k randomly chosen edges to the front.
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(edges)-i)
		edges[i], edges[j] = edges[j], edges[i]
	}
	return FromEdges(g.N(), edges[k:])
}

// RemoveEdges returns a copy of g with the listed edges deleted. Edge
// endpoint order does not matter; pairs that are not edges of g are
// ignored. The vertex set is preserved (a router whose links all fail
// becomes isolated rather than renumbered), which is what the fault
// subsystem needs: distances, routing tables and simulator state all
// keep their vertex ids across damage.
func (g *Graph) RemoveEdges(removed [][2]int32) *Graph {
	if len(removed) == 0 {
		return FromEdges(g.N(), g.Edges())
	}
	drop := make(map[[2]int32]struct{}, len(removed))
	for _, e := range removed {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		drop[[2]int32{u, v}] = struct{}{}
	}
	edges := g.Edges()
	kept := edges[:0]
	for _, e := range edges {
		if _, dead := drop[e]; !dead {
			kept = append(kept, e)
		}
	}
	return FromEdges(g.N(), kept)
}

// AddEdges returns a copy of g with the given edges inserted. The
// vertex set is preserved (endpoints must already be in range); pairs
// listed in either orientation, listed twice, or already present in g
// are added once — AddEdges is the union, the inverse of RemoveEdges'
// set difference. Self-loop pairs are ignored.
func (g *Graph) AddEdges(added [][2]int32) *Graph {
	edges := g.Edges()
	if len(added) == 0 {
		return FromEdges(g.N(), edges)
	}
	have := make(map[[2]int32]struct{}, len(edges)+len(added))
	for _, e := range edges {
		have[e] = struct{}{}
	}
	for _, e := range added {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if _, ok := have[[2]int32{u, v}]; ok {
			continue
		}
		have[[2]int32{u, v}] = struct{}{}
		edges = append(edges, [2]int32{u, v})
	}
	return FromEdges(g.N(), edges)
}

// Subgraph returns the induced subgraph on keep (a vertex subset), along
// with the mapping old→new (-1 for dropped vertices).
func (g *Graph) Subgraph(keep []int) (*Graph, []int32) {
	remap := make([]int32, g.N())
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range keep {
		remap[v] = int32(i)
	}
	b := NewBuilder(len(keep))
	for _, v := range keep {
		for _, w := range g.Neighbors(v) {
			if remap[w] >= 0 && int32(v) < w {
				b.AddEdge(int(remap[v]), int(remap[w]))
			}
		}
	}
	return b.Build(), remap
}

// MulVec computes dst = A·src where A is the adjacency matrix. dst and
// src must both have length N() and must not alias.
func (g *Graph) MulVec(dst, src []float64) {
	for v := range dst {
		var s float64
		for _, w := range g.Neighbors(v) {
			s += src[w]
		}
		dst[v] = s
	}
}

// IsBipartite reports whether the graph is 2-colorable, via BFS
// coloring of every component.
func (g *Graph) IsBipartite() bool {
	n := g.N()
	color := make([]int8, n)
	for i := range color {
		color[i] = -1
	}
	queue := make([]int32, n)
	for s := 0; s < n; s++ {
		if color[s] >= 0 {
			continue
		}
		color[s] = 0
		queue[0] = int32(s)
		head, tail := 0, 1
		for head < tail {
			u := queue[head]
			head++
			for _, v := range g.Neighbors(int(u)) {
				if color[v] < 0 {
					color[v] = 1 - color[u]
					queue[tail] = v
					tail++
				} else if color[v] == color[u] {
					return false
				}
			}
		}
	}
	return true
}

// DegreeHistogram returns a map from degree to vertex count.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		h[g.Degree(v)]++
	}
	return h
}

// CutSize returns the number of edges crossing the bipartition defined
// by side (side[v] ∈ {0,1}).
func (g *Graph) CutSize(side []uint8) int {
	cut := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v && side[u] != side[v] {
				cut++
			}
		}
	}
	return cut
}

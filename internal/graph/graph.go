// Package graph provides the undirected-graph substrate used throughout
// the SpectralFly reproduction: a compact CSR (compressed sparse row)
// representation plus the structural measurements the paper reports —
// diameter, average shortest-path length, girth, connectivity,
// betweenness. Every all-pairs distance computation — routing tables,
// AllPairsStats, DistanceHistogram, layout latency profiles — runs on
// one kernel,
// EachBFS, a bit-parallel BFS that carries 64 sources per sweep.
// EachBFS and the other per-source or per-trial work fan out across
// GOMAXPROCS workers through one loop, EachSource. Single-source BFS
// serves single-source callers; Girth and Centrality keep their own
// traversals, since they need parents and path counts. Centrality is
// one Brandes pass per source that scores vertices and edges together.
package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
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
	cayley  *Cayley // group structure, on graphs built as Cayley graphs (WithCayley)
	// digest is the memoized Digest, set by every CSR constructor (see
	// newGraph) and shared by WithCayley's copy; nil on the zero Graph.
	digest func() [32]byte
}

// newGraph wraps a finished CSR, arming its once-computed digest.
func newGraph(offsets, neigh []int32, m int) *Graph {
	g := &Graph{offsets: offsets, neigh: neigh, m: m}
	g.digest = sync.OnceValue(g.hashWiring)
	return g
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

// Build finalizes the graph, deduplicating edges. It groups the
// recorded pairs by lower endpoint in place (an American flag sort:
// every pair moves straight into its group, with O(n) extra memory and
// no comparison sort over the whole list), sorts each small group by
// upper endpoint and drops repeats, so the distinct edges reach
// FromEdges in order.
func (b *Builder) Build() *Graph {
	start := make([]int32, b.n+1)
	for _, e := range b.edges {
		start[e[0]+1]++
	}
	for u := range b.n {
		start[u+1] += start[u]
	}
	fill := slices.Clone(start[:b.n])
	for u := range b.n {
		for fill[u] < start[u+1] {
			i := fill[u]
			if w := b.edges[i][0]; int(w) != u {
				b.edges[i], b.edges[fill[w]] = b.edges[fill[w]], b.edges[i]
				fill[w]++
			} else {
				fill[u]++
			}
		}
	}
	m := 0
	for u := range b.n {
		group := b.edges[start[u]:start[u+1]]
		slices.SortFunc(group, func(x, y [2]int32) int { return cmp.Compare(x[1], y[1]) })
		for _, e := range group {
			if m == 0 || e != b.edges[m-1] {
				b.edges[m] = e
				m++
			}
		}
	}
	return FromEdges(b.n, b.edges[:m])
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
	g := newGraph(offsets, neigh, len(edges))
	for v := 0; v < n; v++ {
		slices.Sort(g.Neighbors(v))
	}
	return g
}

// N returns the number of vertices (0 on the zero Graph, whose
// offsets are nil).
func (g *Graph) N() int { return max(len(g.offsets)-1, 0) }

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

// Digest returns the SHA-256 of the graph's exact wiring: N() as 8
// little-endian bytes, then every edge of Edges() in its order (u < v,
// CSR order) as u and v in 4 little-endian bytes each. Two graphs
// share a digest exactly when they have the same vertex count and
// edge set, whatever their history or Cayley view. The bytes stream
// from the CSR through one fixed buffer, and a graph hashes them at
// most once: the graph is immutable, so every later call returns the
// memoized sum. The zero Graph hashes an empty graph on each call.
func (g *Graph) Digest() [32]byte {
	if g.digest == nil {
		return g.hashWiring()
	}
	return g.digest()
}

// hashWiring computes Digest from scratch.
func (g *Graph) hashWiring() [32]byte {
	h := sha256.New()
	var buf [8192]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], uint64(g.N()))
	for u := range g.N() {
		for _, v := range g.Neighbors(u) {
			if v <= int32(u) {
				continue
			}
			if len(b)+8 > len(buf) {
				h.Write(b)
				b = buf[:0]
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(u))
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	h.Write(b)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
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
	Diameter  int     // max finite distance (over reachable pairs if !Connected)
	AvgDist   float64 // mean distance over reachable ordered pairs of distinct vertices
}

// EachSource runs one job per source vertex s in 0..n-1 on up to
// GOMAXPROCS goroutines, handing sources out dynamically. newWorker is
// called once on each worker goroutine and returns that goroutine's
// job, closed over private scratch; allocating the scratch there keeps
// workers' hot state off each other's cache lines. Since any worker may
// take any source, a job writes only its worker's private state or,
// once per source, that source's slots; callers fold those after
// EachSource returns, in source order wherever the fold is
// floating-point, so results never depend on scheduling. The same loop
// runs EachBFS's 64-source batches and seeded trials (partition
// trials, layout restarts, Fig 5 failure trials): index s is then the
// batch or trial number.
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

// EachBFS runs a BFS from every vertex and hands each source's
// distance vector to a job: dist[v] is exactly what BFS(src) writes,
// -1 for unreachable vertices. It is the one all-pairs kernel: a
// level-synchronous multi-source sweep (Then et al., "The More the
// Merrier", PVLDB 2014) that carries 64 sources in the bits of one
// word per vertex. Each level sets next[v] to the OR of frontier[u]
// over u ∈ N(v), minus seen[v], skipping vertices every lane has
// already seen, so a batch costs O(levels · m) word operations and
// finishes in about diameter+1 levels — few on the shallow Ramanujan
// graphs this repository routes on.
//
// Batches of 64 sources fan out over EachSource, with newWorker's
// contract: it is called once per worker goroutine and returns that
// worker's job. dist is the worker's scratch, valid only during the
// call: a job must not write it, nor keep it after returning. Per
// worker the kernel holds 64 distance vectors and three bitmaps,
// about 280·n bytes.
func (g *Graph) EachBFS(newWorker func() func(src int, dist []int32)) {
	n := g.N()
	EachSource((n+63)/64, func() func(int) {
		job := newWorker()
		seen := make([]uint64, n)
		frontier := make([]uint64, n)
		next := make([]uint64, n)
		var dist [64][]int32
		for i := range dist {
			dist[i] = make([]int32, n)
		}
		return func(b int) {
			base := 64 * b
			lanes := min(64, n-base)
			full := ^uint64(0) >> (64 - lanes)
			clear(seen)
			clear(frontier)
			for i := range lanes {
				seen[base+i] = 1 << i
				frontier[base+i] = 1 << i
				dist[i][base+i] = 0
			}
			for level := int32(1); ; level++ {
				grew := false
				for v := range n {
					if seen[v] == full {
						next[v] = 0
						continue
					}
					var x uint64
					for _, u := range g.neigh[g.offsets[v]:g.offsets[v+1]] {
						x |= frontier[u]
					}
					x &^= seen[v]
					next[v] = x
					if x != 0 {
						grew = true
						seen[v] |= x
						for ; x != 0; x &= x - 1 {
							dist[bits.TrailingZeros64(x)][v] = level
						}
					}
				}
				if !grew {
					break
				}
				frontier, next = next, frontier
			}
			for v := range n {
				for x := full &^ seen[v]; x != 0; x &= x - 1 {
					dist[bits.TrailingZeros64(x)][v] = -1
				}
			}
			for i := range lanes {
				job(base+i, dist[i])
			}
		}
	})
}

// AllPairsStats folds DistanceHistogram into diameter and mean
// distance. For disconnected graphs Connected=false and
// Diameter/AvgDist describe only reachable pairs.
func (g *Graph) AllPairsStats() PathStats {
	if g.N() <= 1 {
		return PathStats{Connected: true}
	}
	hist, unreachable := g.DistanceHistogram()
	st := PathStats{Connected: unreachable == 0, Diameter: max(len(hist)-1, 0)}
	var sum, pairs int64
	for d, c := range hist {
		sum += int64(d) * c
		pairs += c
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
// over all roots is exact. A graph with a Cayley view is
// vertex-transitive, so every vertex lies on a shortest cycle and the
// BFS from the identity alone is exact.
func (g *Graph) Girth() int {
	if c := g.cayley; c != nil {
		return g.GirthFromVertex(c.Identity)
	}
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

// RemoveEdges returns a copy of g with the listed edges deleted. Edge
// endpoint order does not matter; pairs that are not edges of g
// (self-pairs and out-of-range ids included) and repeated pairs are
// ignored. The vertex set is preserved (a router whose links all fail
// becomes isolated rather than renumbered), which is what the fault
// subsystem needs: distances, routing tables and simulator state all
// keep their vertex ids across damage. It filters the CSR: each
// removed pair is found by binary search in both endpoints' sorted
// lists, and one O(n + m) pass compacts the rest, so every list stays
// sorted. RemoveEdges(nil) is a plain copy.
func (g *Graph) RemoveEdges(removed [][2]int32) *Graph {
	n := int32(g.N())
	drop := make([]bool, len(g.neigh))
	dropped := 0
	for _, e := range removed {
		u, v := e[0], e[1]
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			continue
		}
		su, ok := slices.BinarySearch(g.Neighbors(int(u)), v)
		if !ok || drop[g.offsets[u]+int32(su)] {
			continue
		}
		sv, _ := slices.BinarySearch(g.Neighbors(int(v)), u)
		drop[g.offsets[u]+int32(su)] = true
		drop[g.offsets[v]+int32(sv)] = true
		dropped += 2
	}
	offsets := make([]int32, len(g.offsets))
	neigh := make([]int32, 0, len(g.neigh)-dropped)
	for v := range n {
		for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
			if !drop[i] {
				neigh = append(neigh, g.neigh[i])
			}
		}
		offsets[v+1] = int32(len(neigh))
	}
	return newGraph(offsets, neigh, len(neigh)/2)
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

package graph

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// betweennessBlock is the number of consecutive sources one worker
// accumulates before folding. Fixed, so the floating-point summation
// order — and therefore every result bit — is the same for every
// GOMAXPROCS.
const betweennessBlock = 32

// foldSources sums per-source contributions over sources 0..n-1 into a
// vector of the given width, on GOMAXPROCS workers. Each worker claims
// blocks of betweennessBlock sources in order, accumulates a block
// into its private partial in source order, then adds the partial to
// the total once every earlier block has been added. The total is thus
// (((block 0) + block 1) + …) whatever the worker count or scheduling.
// newSource returns one worker's accumulator: it adds source s's
// contribution to part, reusing its own scratch state.
func foldSources(n, width int, newSource func() func(s int, part []float64)) []float64 {
	out := make([]float64, width)
	blocks := (n + betweennessBlock - 1) / betweennessBlock
	workers := min(runtime.GOMAXPROCS(0), blocks)
	var (
		next atomic.Int64 // blocks claimed so far
		mu   sync.Mutex
		turn int // the next block to add to out
		wg   sync.WaitGroup
	)
	cond := sync.NewCond(&mu)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			source := newSource()
			part := make([]float64, width)
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				clear(part)
				for s := b * betweennessBlock; s < min(n, (b+1)*betweennessBlock); s++ {
					source(s, part)
				}
				mu.Lock()
				for turn != b {
					cond.Wait()
				}
				for i, x := range part {
					out[i] += x
				}
				turn++
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// Centrality computes exact unweighted vertex and edge betweenness
// in one pass of Brandes' algorithm per source, parallelized over
// sources. §V of the SpectralFly paper motivates non-minimal routing
// by exactly these quantities: routers with high betweenness sit on
// many shortest paths and become bottlenecks in saturated networks,
// and in group-structured topologies like DragonFly the global links
// concentrate shortest paths while expander links stay near-uniform.
//
// vertex[v] counts ordered source-target pairs (the conventional
// unnormalized definition halves this for undirected graphs; callers
// comparing topologies can use either consistently). edge is aligned
// with Edges(). Both are bit-identical for every GOMAXPROCS (see
// foldSources).
func (g *Graph) Centrality() (vertex, edge []float64) {
	n := g.N()
	// One fold vector: the n vertex scores, then one score per directed
	// CSR slot, folded onto undirected edges below.
	sums := foldSources(n, n+len(g.neigh), func() func(int, []float64) {
		sigma := make([]float64, n)
		dist := make([]int32, n)
		delta := make([]float64, n)
		order := make([]int32, n) // BFS queue; read backwards, Brandes' stack
		return func(s int, part []float64) {
			bc, eb := part[:n], part[n:]
			for i := range n {
				sigma[i] = 0
				dist[i] = -1
				delta[i] = 0
			}
			sigma[s] = 1
			dist[s] = 0
			order[0] = int32(s)
			head, tail := 0, 1
			for head < tail {
				v := order[head]
				head++
				for _, u := range g.Neighbors(int(v)) {
					if dist[u] < 0 {
						dist[u] = dist[v] + 1
						order[tail] = u
						tail++
					}
					if dist[u] == dist[v]+1 {
						sigma[u] += sigma[v]
					}
				}
			}
			// Back-propagate dependencies in reverse BFS order; the
			// source, at order[0], has no predecessors and scores
			// nothing. v's predecessors are its neighbors one level
			// up, so scanning v's own slots finds each predecessor
			// link once, as the slot v→u.
			for i := tail - 1; i > 0; i-- {
				v := order[i]
				for j := g.offsets[v]; j < g.offsets[v+1]; j++ {
					if u := g.neigh[j]; dist[u] == dist[v]-1 {
						c := sigma[u] / sigma[v] * (1 + delta[v])
						delta[u] += c
						eb[j] += c
					}
				}
				bc[v] += delta[v]
			}
		}
	})
	// An undirected edge's score is the sum of its two directed slots.
	edge = make([]float64, 0, g.m)
	for v := range n {
		for j := g.offsets[v]; j < g.offsets[v+1]; j++ {
			if u := g.neigh[j]; int32(v) < u {
				i, _ := slices.BinarySearch(g.Neighbors(int(u)), int32(v))
				edge = append(edge, sums[n+int(j)]+sums[n+int(g.offsets[u])+i])
			}
		}
	}
	return sums[:n:n], edge
}

// BetweennessProfile summarizes a centrality vector for topology
// comparison: max, mean, and the max/mean ratio ("bottleneck factor";
// 1.0 means perfectly flat, as in a vertex-transitive graph).
type BetweennessProfile struct {
	Max, Mean, Ratio float64
}

// Summarize returns the profile of a vertex or edge centrality vector;
// an empty vector gives the zero profile.
func Summarize(scores []float64) BetweennessProfile {
	var p BetweennessProfile
	if len(scores) == 0 {
		return p
	}
	for _, x := range scores {
		if x > p.Max {
			p.Max = x
		}
		p.Mean += x
	}
	p.Mean /= float64(len(scores))
	if p.Mean > 0 {
		p.Ratio = p.Max / p.Mean
	}
	return p
}

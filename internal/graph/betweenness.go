package graph

import (
	"runtime"
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

// BetweennessCentrality computes exact unweighted vertex betweenness
// via Brandes' algorithm, parallelized over source vertices. §V of the
// SpectralFly paper motivates non-minimal routing by exactly this
// quantity: routers with high betweenness sit on many shortest paths
// and become bottlenecks in saturated networks, so a topology with a
// flatter betweenness profile (like an expander) suffers less.
//
// The returned scores count ordered source-target pairs (the
// conventional unnormalized definition halves this for undirected
// graphs; callers comparing topologies can use either consistently).
// They are bit-identical for every GOMAXPROCS (see foldSources).
func (g *Graph) BetweennessCentrality() []float64 {
	n := g.N()
	return foldSources(n, n, func() func(int, []float64) {
		// Brandes working state, reused across sources.
		stack := make([]int32, 0, n)
		preds := make([][]int32, n)
		sigma := make([]float64, n)
		dist := make([]int32, n)
		delta := make([]float64, n)
		queue := make([]int32, n)
		return func(s int, bc []float64) {
			stack = stack[:0]
			for i := 0; i < n; i++ {
				preds[i] = preds[i][:0]
				sigma[i] = 0
				dist[i] = -1
				delta[i] = 0
			}
			sigma[s] = 1
			dist[s] = 0
			queue[0] = int32(s)
			head, tail := 0, 1
			for head < tail {
				v := queue[head]
				head++
				stack = append(stack, v)
				for _, u := range g.Neighbors(int(v)) {
					if dist[u] < 0 {
						dist[u] = dist[v] + 1
						queue[tail] = u
						tail++
					}
					if dist[u] == dist[v]+1 {
						sigma[u] += sigma[v]
						preds[u] = append(preds[u], v)
					}
				}
			}
			for i := len(stack) - 1; i >= 0; i-- {
				v := stack[i]
				for _, u := range preds[v] {
					delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
				}
				if int(v) != s {
					bc[v] += delta[v]
				}
			}
		}
	})
}

// EdgeBetweennessCentrality computes exact unweighted edge betweenness
// (Brandes' accumulation applied to edges), returned aligned with
// Edges(). For group-structured topologies like DragonFly the global
// links concentrate shortest paths — the §V bottleneck — while
// expander links stay near-uniform. Like BetweennessCentrality it is
// bit-identical for every GOMAXPROCS.
func (g *Graph) EdgeBetweennessCentrality() []float64 {
	n := g.N()
	// Accumulate per directed CSR slot, then fold to undirected edges.
	folded := foldSources(n, len(g.neigh), func() func(int, []float64) {
		stack := make([]int32, 0, n)
		preds := make([][]int32, n) // positions in neigh (directed slots into v)
		sigma := make([]float64, n)
		dist := make([]int32, n)
		delta := make([]float64, n)
		queue := make([]int32, n)
		return func(s int, eb []float64) {
			stack = stack[:0]
			for i := 0; i < n; i++ {
				preds[i] = preds[i][:0]
				sigma[i] = 0
				dist[i] = -1
				delta[i] = 0
			}
			sigma[s] = 1
			dist[s] = 0
			queue[0] = int32(s)
			head, tail := 0, 1
			for head < tail {
				v := queue[head]
				head++
				stack = append(stack, v)
				for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
					u := g.neigh[i]
					if dist[u] < 0 {
						dist[u] = dist[v] + 1
						queue[tail] = u
						tail++
					}
					if dist[u] == dist[v]+1 {
						sigma[u] += sigma[v]
						// Slot i is the directed edge v→u.
						preds[u] = append(preds[u], i)
					}
				}
			}
			for i := len(stack) - 1; i >= 0; i-- {
				v := stack[i]
				for _, slot := range preds[v] {
					// slot is directed u→v; recover u by ownership.
					u := slotOwner(g, slot)
					c := sigma[u] / sigma[v] * (1 + delta[v])
					delta[u] += c
					eb[slot] += c
				}
			}
		}
	})
	// Fold directed slots onto the undirected edge list (u < v order).
	edges := g.Edges()
	index := make(map[[2]int32]int, len(edges))
	for i, e := range edges {
		index[e] = i
	}
	out := make([]float64, len(edges))
	for v := 0; v < n; v++ {
		for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
			u := g.neigh[i]
			key := [2]int32{int32(v), u}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			out[index[key]] += folded[i]
		}
	}
	return out
}

// slotOwner returns the vertex that owns CSR slot i (binary search over
// offsets).
func slotOwner(g *Graph, slot int32) int32 {
	lo, hi := 0, g.N()
	for lo < hi {
		mid := (lo + hi) / 2
		if g.offsets[mid+1] <= slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// EdgeBetweenness returns the max/mean/ratio profile of edge
// betweenness.
func (g *Graph) EdgeBetweenness() BetweennessProfile {
	eb := g.EdgeBetweennessCentrality()
	var p BetweennessProfile
	if len(eb) == 0 {
		return p
	}
	for _, x := range eb {
		if x > p.Max {
			p.Max = x
		}
		p.Mean += x
	}
	p.Mean /= float64(len(eb))
	if p.Mean > 0 {
		p.Ratio = p.Max / p.Mean
	}
	return p
}

// BetweennessProfile summarizes a centrality vector for topology
// comparison: max, mean, and the max/mean ratio ("bottleneck factor";
// 1.0 means perfectly flat, as in a vertex-transitive graph).
type BetweennessProfile struct {
	Max, Mean, Ratio float64
}

// Betweenness computes the profile directly.
func (g *Graph) Betweenness() BetweennessProfile {
	bc := g.BetweennessCentrality()
	var p BetweennessProfile
	if len(bc) == 0 {
		return p
	}
	for _, x := range bc {
		if x > p.Max {
			p.Max = x
		}
		p.Mean += x
	}
	p.Mean /= float64(len(bc))
	if p.Mean > 0 {
		p.Ratio = p.Max / p.Mean
	}
	return p
}

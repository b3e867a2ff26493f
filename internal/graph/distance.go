package graph

import "sync"

// DistanceHistogram counts ordered vertex pairs by hop distance:
// hist[d] = #{(u,v) : dist(u,v) = d}, computed by the all-pairs
// kernel EachBFS. Unreachable pairs are counted in the second return
// value. On a graph with a Cayley view every vertex sees the same
// distance profile as the identity (left multiplication is an
// automorphism), so the histogram is n times the identity's, from one
// BFS: the same integer counts as the all-pairs pass.
//
// This quantifies §IV-b's observation (after Sardari) that in a
// Ramanujan graph only a vanishing fraction of pairs sit at distance
// greater than (1+ε)·log_{k-1}(n): the histogram's tail above that
// point should carry almost no mass, even when the diameter itself is
// larger — "most pairs are closer than the diameter" (Fig. 3).
func (g *Graph) DistanceHistogram() (hist []int64, unreachable int64) {
	if c := g.cayley; c != nil {
		n := int64(g.N())
		dist := make([]int32, n)
		g.BFS(c.Identity, dist, nil)
		for v, d := range dist {
			switch {
			case v == c.Identity:
			case d < 0:
				unreachable += n
			default:
				for int(d) >= len(hist) {
					hist = append(hist, 0)
				}
				hist[d] += n
			}
		}
		return hist, unreachable
	}
	type partial struct {
		hist        []int64
		unreachable int64
	}
	var mu sync.Mutex
	var parts []*partial // one per worker
	g.EachBFS(func() func(int, []int32) {
		p := &partial{hist: make([]int64, 0, 16)}
		mu.Lock()
		parts = append(parts, p)
		mu.Unlock()
		return func(s int, dist []int32) {
			for v, d := range dist {
				if v == s {
					continue
				}
				if d < 0 {
					p.unreachable++
					continue
				}
				for int(d) >= len(p.hist) {
					p.hist = append(p.hist, 0)
				}
				p.hist[d]++
			}
		}
	})
	for _, p := range parts {
		for d, c := range p.hist {
			for d >= len(hist) {
				hist = append(hist, 0)
			}
			hist[d] += c
		}
		unreachable += p.unreachable
	}
	return hist, unreachable
}

// TailFraction returns the fraction of reachable ordered pairs at
// distance strictly greater than d, given a histogram from
// DistanceHistogram.
func TailFraction(hist []int64, d int) float64 {
	var total, tail int64
	for i, c := range hist {
		total += c
		if i > d {
			tail += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(tail) / float64(total)
}

// BallSizes returns the cumulative neighborhood sizes |B(v, r)| for
// r = 0..maxR from a single vertex — the data behind Fig. 3's k-hop
// neighborhood visualization.
func (g *Graph) BallSizes(v, maxR int) []int {
	dist := make([]int32, g.N())
	g.BFS(v, dist, nil)
	out := make([]int, maxR+1)
	for _, d := range dist {
		if d >= 0 && int(d) <= maxR {
			out[d]++
		}
	}
	for r := 1; r <= maxR; r++ {
		out[r] += out[r-1]
	}
	return out
}

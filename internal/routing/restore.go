package routing

import "repro/internal/graph"

// Restore returns the routing table for t's topology with the given
// links inserted, recomputing only what the insertion improves — the
// incremental counterpart of Repair for the restore direction of a
// timed topology event (links coming back up, a planned rewiring step
// activating edges). The result is exactly what NewTable would compute
// on the augmented graph, a property FuzzRepairRestore and the
// cut→Repair→restore→Restore round-trip sweep enforce across all three
// storage backends.
//
// Edge insertion is the easy direction of dynamic shortest paths:
// distances can only decrease, so no affected-set screening is needed.
// Per destination d:
//
//  1. Seed: each inserted edge (u,v) where one endpoint's old distance
//     would give the other a shorter path (old[u]+1 < old[v], treating
//     unreachable as +inf) tentatively improves that endpoint.
//  2. Relax: a bucket Dijkstra over the NEW graph settles improved
//     vertices in increasing distance order, propagating improvements
//     to neighbors (including through chains of inserted edges whose
//     interior vertices were unreachable before). Vertices that do not
//     improve keep their old distance exactly.
//
// When no seed fires the old row is shared with t outright; inserted
// pairs already present in t.G are tolerated (they can never improve a
// distance). Destinations are restored in parallel, and the restored
// table keeps the receiver's storage backend (see update).
func (t *Table) Restore(added [][2]int32) *Table {
	return t.update(t.G.AddEdges(added), added, func(g *graph.Graph, norm [][2]int32) func([]int32) []int32 {
		return newRestorer(g, norm).restoreDest
	})
}

// restorer holds the per-worker scratch state for incremental-insertion
// vector restore. All buffers are O(n) and reused across destinations;
// resets touch only the vertices and buckets a restore actually used.
type restorer struct {
	g     *graph.Graph
	added [][2]int32

	tent    []int32 // tentative improved distance (-2 = untouched)
	settled []bool

	buckets [][]int32 // Dijkstra buckets, indexed by tentative distance
	touched []int32   // vertices with tent set (for cleanup + writeback)
}

func newRestorer(g *graph.Graph, added [][2]int32) *restorer {
	n := g.N()
	r := &restorer{
		g:       g,
		added:   added,
		tent:    make([]int32, n),
		settled: make([]bool, n),
		buckets: make([][]int32, n+2),
	}
	for i := range r.tent {
		r.tent[i] = -2
	}
	return r
}

// restoreDest returns the augmented-graph distance vector toward one
// destination, given its pre-insertion vector. The returned slice is
// old itself when nothing improved, or a fresh copy with only the
// improved entries rewritten.
func (r *restorer) restoreDest(old []int32) []int32 {
	// known is the best distance currently on record for x: a tentative
	// improvement if one exists, the old distance otherwise (-1 = +inf).
	known := func(x int32) int32 {
		if r.tent[x] != -2 {
			return r.tent[x]
		}
		return old[x]
	}
	maxB := int32(-1)
	improve := func(x, nd int32) {
		if k := known(x); k >= 0 && k <= nd {
			return // not an improvement
		}
		if r.tent[x] == -2 {
			r.touched = append(r.touched, x)
		}
		r.tent[x] = nd
		r.buckets[nd] = append(r.buckets[nd], x)
		if nd > maxB {
			maxB = nd
		}
	}
	for _, e := range r.added {
		du, dv := old[e[0]], old[e[1]]
		if du >= 0 && (dv < 0 || dv > du+1) {
			improve(e[1], du+1)
		} else if dv >= 0 && (du < 0 || du > dv+1) {
			improve(e[0], dv+1)
		}
	}
	if len(r.touched) == 0 {
		return old // insertion is invisible to this destination
	}

	// Settle improved vertices in increasing distance order over the
	// new graph; each settle may improve its neighbors in turn (this is
	// how chains of inserted edges through formerly unreachable regions
	// propagate).
	for bd := int32(0); bd <= maxB; bd++ {
		bucket := r.buckets[bd]
		for bi := 0; bi < len(bucket); bi++ {
			x := bucket[bi]
			if r.settled[x] || r.tent[x] != bd {
				continue // stale queue entry
			}
			r.settled[x] = true
			for _, y := range r.g.Neighbors(int(x)) {
				if k := known(int32(y)); k < 0 || k > bd+1 {
					improve(y, bd+1)
				}
			}
		}
		r.buckets[bd] = bucket[:0]
	}

	vec := make([]int32, len(old))
	copy(vec, old)
	for _, x := range r.touched {
		vec[x] = r.tent[x] // every touched vertex settled at its final value
		r.tent[x] = -2
		r.settled[x] = false
	}
	r.touched = r.touched[:0]
	return vec
}

package routing

import "repro/internal/graph"

// Repair returns the routing table for t's topology with the given
// links removed, recomputing only what the damage invalidates. The
// result is exactly what NewTable would compute on the damaged graph —
// a property the fuzz targets and the 1200-case sweep in
// repair_fuzz_test.go enforce — and rows the damage leaves unchanged
// share their cells with t, so a repaired table costs memory only
// where distances changed. Repair's time scales with the damage, but
// it no longer beats a rebuild on time alone: since NewTable runs on
// the 64-source graph.EachBFS kernel, rebuilding LPS(23,11) with 2% of
// its links cut takes 2.2–2.5 ms against Repair's 5.8–7.4 ms (2-vCPU
// VM; DESIGN.md §6).
//
// High-girth topologies (the LPS graphs SpectralFly is built on) make
// this harder than it sounds: below girth/2 hops shortest paths are
// unique, so almost every destination has *some* vertex whose distance
// changes, and a per-destination "re-BFS if anything changed" screen
// degenerates to a full rebuild. Repair therefore works at vertex
// granularity, the unit-weight analogue of the Ramalingam–Reps
// decremental shortest-path update. Per destination d:
//
//  1. Seed: the far endpoint of every removed edge that was tight for
//     d (endpoint distances differing by one) may have lost its only
//     parent in d's BFS DAG.
//  2. Affected set: processing candidates strictly by increasing old
//     distance, a vertex is affected iff it retains no neighbor in the
//     damaged graph at old distance one less that is itself
//     unaffected. Children (damaged-graph neighbors one level further)
//     of each affected vertex become candidates. Distances never
//     decrease under edge removal, so vertices outside this set keep
//     their old distance exactly.
//  3. Re-settle: only affected vertices are re-solved, by a bucket
//     Dijkstra whose boundary values come from the unaffected
//     frontier (old distance + 1). Vertices that no longer reach d
//     become -1.
//
// When the affected set is empty the old row is shared with t outright
// (tables are immutable, so sharing is safe); removed pairs that are
// not edges of t.G are tolerated (they can only seed candidates that
// immediately prove unaffected, never corrupt the table). Destinations
// are repaired in parallel, and the repaired table keeps the
// receiver's storage backend (see update).
func (t *Table) Repair(removed [][2]int32) *Table {
	return t.update(t.G.RemoveEdges(removed), removed, func(g *graph.Graph, norm [][2]int32) func([]int32) []int32 {
		return newRepairer(g, norm).repairDest
	})
}

// update is the one driver behind Repair and Restore: it returns the
// table over g, the receiver's topology with edges removed or
// inserted, in the receiver's store. newFix returns one worker's
// per-destination update, given g and the edges normalized to u < v:
// it maps a destination's old distance vector, which it must not
// write, to the new one — old itself when nothing changed, a fresh
// vector otherwise.
//
// Each old row is read through view: a 32-bit (dense) row in place,
// uncopied, a narrower one decoded into per-worker scratch. An
// unchanged row is copied, sharing its cells; a changed one is
// re-encoded at whatever width its new distances need (damage can push
// a packed row past the 4-bit range). A lazy table short-circuits: its rows are always computed on demand from its own
// graph, so the update is just a fresh lazy table over g — identical
// distances, zero up-front work.
func (t *Table) update(g *graph.Graph, edges [][2]int32, newFix func(g *graph.Graph, norm [][2]int32) func(old []int32) []int32) *Table {
	if t.lazy != nil {
		return NewTableOpts(g, TableOptions{Store: StoreLazy, MaxResident: t.lazy.cap})
	}
	// Normalize once so per-destination passes index directly.
	norm := make([][2]int32, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		norm[i] = [2]int32{u, v}
	}
	n := g.N()
	nt := &Table{G: g, store: t.store, rows: make([]packedRow, n)}
	minBits := t.store.minBits()
	graph.EachSource(n, func() func(int) {
		fix := newFix(g, norm)
		scratch := make([]int32, n)
		return func(d int) {
			old := t.rows[d].view(scratch)
			if vec := fix(old); &vec[0] != &old[0] {
				nt.rows[d] = encodeRow(vec, minBits)
			} else {
				nt.rows[d] = t.rows[d] // unchanged: share the row
			}
		}
	})
	nt.diam = maxRowDist(nt.rows)
	return nt
}

// repairer holds the per-worker scratch state for vertex-granular
// vector repair. All buffers are O(n) and reused across destinations;
// resets touch only the vertices and buckets a repair actually used.
type repairer struct {
	g       *graph.Graph
	removed [][2]int32

	affected []bool  // final affected set of the current destination
	enq      []bool  // candidate already enqueued for the current destination
	tent     []int32 // phase-3 tentative distance (-2 = untouched)
	settled  []bool  // phase-3 settled flag

	cands   [][]int32 // phase-2 candidate queue, bucketed by old distance
	buckets [][]int32 // phase-3 Dijkstra buckets, indexed by tentative distance

	affList []int32 // vertices marked affected (for cleanup + phase 3)
	enqList []int32 // vertices marked enqueued (for cleanup)
}

func newRepairer(g *graph.Graph, removed [][2]int32) *repairer {
	n := g.N()
	r := &repairer{
		g:        g,
		removed:  removed,
		affected: make([]bool, n),
		enq:      make([]bool, n),
		tent:     make([]int32, n),
		settled:  make([]bool, n),
		cands:    make([][]int32, n+2),
		buckets:  make([][]int32, n+2),
	}
	for i := range r.tent {
		r.tent[i] = -2
	}
	return r
}

// repairDest returns the damaged-graph distance vector toward one
// destination, given its pre-damage vector. The returned slice is old
// itself when nothing changed, or a fresh copy with only the affected
// entries rewritten.
func (r *repairer) repairDest(old []int32) []int32 {
	// Phase 1 — seed candidates from removed tight edges. An edge with
	// slack (endpoint distances equal) or between unreachable vertices
	// lay on no shortest path toward this destination.
	minLevel, maxLevel := int32(-1), int32(-1)
	seed := func(far int32) {
		if old[far] < 1 {
			// Only possible for removed pairs that are not edges of the
			// old graph (a real edge never links the destination, or an
			// unreachable vertex, to a vertex one hop further): the
			// destination's own distance can never change.
			return
		}
		if !r.enq[far] {
			r.enq[far] = true
			r.enqList = append(r.enqList, far)
			lv := old[far]
			r.cands[lv] = append(r.cands[lv], far)
			if minLevel < 0 || lv < minLevel {
				minLevel = lv
			}
			if lv > maxLevel {
				maxLevel = lv
			}
		}
	}
	for _, e := range r.removed {
		du, dv := old[e[0]], old[e[1]]
		switch {
		case du-dv == 1:
			seed(e[0])
		case dv-du == 1:
			seed(e[1])
		}
	}
	if len(r.enqList) == 0 {
		return old // damage is invisible to this destination
	}

	// Phase 2 — grow the affected set in increasing old-distance order.
	// All potential parents of a level-k candidate sit at level k-1,
	// whose affected status is final by the time level k is processed,
	// so a single check per candidate suffices.
	for lv := minLevel; lv <= maxLevel; lv++ {
		queue := r.cands[lv]
		for qi := 0; qi < len(queue); qi++ {
			x := queue[qi]
			hasParent := false
			for _, w := range r.g.Neighbors(int(x)) {
				if old[w] == lv-1 && !r.affected[w] {
					hasParent = true
					break
				}
			}
			if !hasParent {
				r.affected[x] = true
				r.affList = append(r.affList, x)
				for _, y := range r.g.Neighbors(int(x)) {
					if old[y] == lv+1 && !r.enq[y] {
						r.enq[y] = true
						r.enqList = append(r.enqList, y)
						r.cands[lv+1] = append(r.cands[lv+1], y)
						if lv+1 > maxLevel {
							maxLevel = lv + 1
						}
					}
				}
			}
		}
		r.cands[lv] = queue[:0]
	}
	if maxLevel+1 < int32(len(r.cands)) {
		r.cands[maxLevel+1] = r.cands[maxLevel+1][:0]
	}
	affected := r.affList
	if len(affected) == 0 {
		r.resetMarks()
		return old // every candidate kept an alternate parent
	}

	// Phase 3 — re-settle the affected vertices with a bucket Dijkstra
	// seeded from the unaffected frontier. Unaffected vertices keep
	// their old (still exact) distances.
	vec := make([]int32, len(old))
	copy(vec, old)
	maxB := int32(-1)
	for _, x := range affected {
		best := int32(-1)
		for _, w := range r.g.Neighbors(int(x)) {
			if !r.affected[w] && old[w] >= 0 {
				if d := old[w] + 1; best < 0 || d < best {
					best = d
				}
			}
		}
		r.tent[x] = best
		if best >= 0 {
			r.buckets[best] = append(r.buckets[best], x)
			if best > maxB {
				maxB = best
			}
		}
	}
	for bd := int32(0); bd <= maxB; bd++ {
		bucket := r.buckets[bd]
		for bi := 0; bi < len(bucket); bi++ {
			x := bucket[bi]
			if r.settled[x] || r.tent[x] != bd {
				continue // stale queue entry
			}
			r.settled[x] = true
			vec[x] = bd
			for _, y := range r.g.Neighbors(int(x)) {
				if r.affected[y] && !r.settled[y] {
					if nd := bd + 1; r.tent[y] < 0 || nd < r.tent[y] {
						r.tent[y] = nd
						r.buckets[nd] = append(r.buckets[nd], y)
						if nd > maxB {
							maxB = nd
						}
					}
				}
			}
		}
		r.buckets[bd] = bucket[:0]
	}
	for _, x := range affected {
		if !r.settled[x] {
			vec[x] = -1 // cut off from the destination entirely
		}
	}
	r.resetPhase3()
	r.resetMarks()
	return vec
}

// resetMarks clears the phase-1/2 per-destination state.
func (r *repairer) resetMarks() {
	for _, x := range r.enqList {
		r.enq[x] = false
	}
	r.enqList = r.enqList[:0]
	for _, x := range r.affList {
		r.affected[x] = false
	}
	r.affList = r.affList[:0]
}

// resetPhase3 clears the Dijkstra state touched by the last repair.
func (r *repairer) resetPhase3() {
	for _, x := range r.affList {
		r.tent[x] = -2
		r.settled[x] = false
	}
}

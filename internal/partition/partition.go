// Package partition implements a multilevel graph bisector in the
// METIS algorithm family: heavy-edge-matching coarsening, greedy
// region-growing initial partitions, and Fiduccia–Mattheyses (FM)
// boundary refinement with a balance constraint.
//
// The SpectralFly paper uses METIS to approximate bisection bandwidth —
// the minimum number of edges crossing a balanced bipartition — as an
// upper bound that, together with the Fiedler spectral lower bound,
// brackets the true value (§IV-d, Figure 4). This package plays exactly
// that role. Randomized trials run in parallel and the best cut wins;
// all randomness is seeded for reproducibility.
package partition

import (
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// Options controls the bisection search.
type Options struct {
	// Seed drives all randomized choices; trial t uses Seed+t.
	Seed int64
	// Trials is the number of independent multilevel runs (default 8).
	Trials int
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 8
	}
	return o
}

const (
	// balanceTol is the imbalance refinement allows, as a fraction of
	// total vertex weight. The heaviest coarse vertex is always
	// tolerated to keep refinement feasible.
	balanceTol = 0.02
	// exactTol forces near-exact balance for the final polish at the
	// finest, unit-weight level: the imbalance clamps to maxVwt = 1.
	exactTol = 1e-12
	// coarsenTo stops coarsening once the graph is at most this size.
	coarsenTo = 48
)

// Result is a bisection of a graph.
type Result struct {
	Side []uint8 // 0 or 1 per vertex
	Cut  int     // number of crossing edges
}

// Bisect computes a balanced bisection of g, minimizing the edge cut.
// The returned cut is an upper bound on the true bisection bandwidth.
func Bisect(g *graph.Graph, opts Options) Result {
	opts = opts.withDefaults()
	n := g.N()
	if n == 0 {
		return Result{Side: []uint8{}, Cut: 0}
	}
	if n == 1 {
		return Result{Side: []uint8{0}, Cut: 0}
	}
	side, cut := bisectW(fromGraph(g), 0.5, opts)
	return Result{Side: side, Cut: int(cut)}
}

// bisectW runs the full randomized multilevel pipeline on a weighted
// graph, aiming side 0 at frac of the total vertex weight (0.5 is the
// classic bisection; KWay uses fractional targets for odd splits).
// Trials run in parallel; the best cut wins deterministically.
func bisectW(w *wgraph, frac float64, opts Options) ([]uint8, int64) {
	// target2/bias are the 2x-scaled side-0 target and the fmRefine
	// balance offset; both are exactly 0-biased at frac = 0.5, so the
	// historical Bisect behavior is bit-identical.
	target2 := int64(2 * frac * float64(w.totW))
	bias := target2 - w.totW

	type trialOut struct {
		side []uint8
		cut  int64
	}
	results := make([]trialOut, opts.Trials)
	graph.EachSource(opts.Trials, func() func(int) {
		return func(t int) {
			rng := rand.New(rand.NewSource(opts.Seed + int64(t)*7919))
			side := multilevel(w, rng, frac, bias)
			exactBalance(w, side, target2)
			fmRefine(w, side, exactTol, 3, bias)
			results[t] = trialOut{side, cutOf(w, side)}
		}
	})
	best := results[0]
	for _, r := range results[1:] {
		if r.cut < best.cut {
			best = r
		}
	}
	return best.side, best.cut
}

// KWay partitions g into k balanced parts by recursive bisection: each
// recursion level splits the shard range in half (left gets the ceil)
// and bisects the vertex subset at the matching fractional weight
// target, so any k — not just powers of two — yields parts within a
// vertex or two of n/k at every level. The assignment is deterministic
// for a fixed (g, k, Seed): trials select the best cut by (cut, trial)
// order and refinement is seeded. The sharded simulator (simnet) keys
// its router-to-shard map on exactly this property.
func KWay(g *graph.Graph, k int, opts Options) []int32 {
	opts = opts.withDefaults()
	n := g.N()
	part := make([]int32, n)
	if k <= 1 || n == 0 {
		return part
	}
	if k > n {
		k = n
	}
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
	}
	var rec func(verts []int32, lo, kc int)
	rec = func(verts []int32, lo, kc int) {
		if kc == 1 {
			for _, v := range verts {
				part[v] = int32(lo)
			}
			return
		}
		if len(verts) <= kc {
			// Degenerate: one vertex per part, in vertex order.
			for i, v := range verts {
				part[v] = int32(lo + i)
			}
			return
		}
		kl := (kc + 1) / 2
		w := fromSubset(g, verts)
		side, _ := bisectW(w, float64(kl)/float64(kc), opts)
		var left, right []int32
		for i, v := range verts {
			if side[i] == 0 {
				left = append(left, v)
			} else {
				right = append(right, v)
			}
		}
		rec(left, lo, kl)
		rec(right, lo+kl, kc-kl)
	}
	rec(all, 0, k)
	return part
}

// fromSubset builds the unit-weight wgraph induced on verts (edges
// with both endpoints inside the subset). Vertex i of the wgraph is
// verts[i].
func fromSubset(g *graph.Graph, verts []int32) *wgraph {
	local := make([]int32, g.N())
	for i := range local {
		local[i] = -1
	}
	for i, v := range verts {
		local[v] = int32(i)
	}
	edges := 0
	for _, v := range verts {
		for _, u := range g.Neighbors(int(v)) {
			if local[u] >= 0 {
				edges++
			}
		}
	}
	n := len(verts)
	w := &wgraph{
		offsets: make([]int32, n+1),
		neigh:   make([]int32, edges),
		ewt:     make([]int64, edges),
		vwt:     make([]int64, n),
		totW:    int64(n),
		maxVwt:  1,
	}
	pos := 0
	for i, v := range verts {
		w.vwt[i] = 1
		for _, u := range g.Neighbors(int(v)) {
			if lu := local[u]; lu >= 0 {
				w.neigh[pos] = lu
				w.ewt[pos] = 1
				pos++
			}
		}
		w.offsets[i+1] = int32(pos)
	}
	return w
}

// BisectionBandwidth returns the best cut found for g.
func BisectionBandwidth(g *graph.Graph, opts Options) int {
	return Bisect(g, opts).Cut
}

// wgraph is a weighted graph used internally across coarsening levels.
type wgraph struct {
	offsets []int32
	neigh   []int32
	ewt     []int64
	vwt     []int64
	totW    int64
	maxVwt  int64
}

func (w *wgraph) n() int { return len(w.vwt) }

func fromGraph(g *graph.Graph) *wgraph {
	n := g.N()
	w := &wgraph{
		offsets: make([]int32, n+1),
		neigh:   make([]int32, 2*g.M()),
		ewt:     make([]int64, 2*g.M()),
		vwt:     make([]int64, n),
		totW:    int64(n),
		maxVwt:  1,
	}
	pos := 0
	for v := 0; v < n; v++ {
		w.vwt[v] = 1
		for _, u := range g.Neighbors(v) {
			w.neigh[pos] = u
			w.ewt[pos] = 1
			pos++
		}
		w.offsets[v+1] = int32(pos)
	}
	return w
}

func cutOf(w *wgraph, side []uint8) int64 {
	var cut int64
	for v := 0; v < w.n(); v++ {
		for i := w.offsets[v]; i < w.offsets[v+1]; i++ {
			u := w.neigh[i]
			if int32(v) < u && side[v] != side[u] {
				cut += w.ewt[i]
			}
		}
	}
	return cut
}

func multilevel(w *wgraph, rng *rand.Rand, frac float64, bias int64) []uint8 {
	// Coarsening phase.
	levels := []*wgraph{w}
	maps := [][]int32{} // maps[i]: vertex of levels[i] -> vertex of levels[i+1]
	for levels[len(levels)-1].n() > coarsenTo {
		cur := levels[len(levels)-1]
		coarse, cmap := coarsen(cur, rng)
		if coarse.n() >= cur.n()*9/10 {
			break // diminishing returns; stop
		}
		levels = append(levels, coarse)
		maps = append(maps, cmap)
	}
	// Initial partition at the coarsest level: several random
	// region-growing starts, each FM-refined; keep the best.
	coarsest := levels[len(levels)-1]
	var side []uint8
	bestCut := int64(1) << 62
	for attempt := 0; attempt < 6; attempt++ {
		cand := initialPartition(coarsest, rng, frac)
		fmRefine(coarsest, cand, balanceTol, 6, bias)
		if c := cutOf(coarsest, cand); c < bestCut {
			bestCut = c
			side = cand
		}
	}
	// Uncoarsening with refinement.
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		cmap := maps[li]
		fineSide := make([]uint8, fine.n())
		for v := range fineSide {
			fineSide[v] = side[cmap[v]]
		}
		side = fineSide
		fmRefine(fine, side, balanceTol, 4, bias)
	}
	return side
}

// coarsen contracts a heavy-edge matching of w.
func coarsen(w *wgraph, rng *rand.Rand) (*wgraph, []int32) {
	n := w.n()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		bestU, bestW := int32(-1), int64(-1)
		for i := w.offsets[v]; i < w.offsets[v+1]; i++ {
			u := w.neigh[i]
			if match[u] < 0 && u != int32(v) && w.ewt[i] > bestW {
				bestU, bestW = u, w.ewt[i]
			}
		}
		if bestU >= 0 {
			match[v] = bestU
			match[bestU] = int32(v)
		} else {
			match[v] = int32(v)
		}
	}
	// Assign coarse ids in order of each pair's lower vertex; rep[c]
	// is that vertex and match[rep[c]] its partner (itself if unmatched).
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	rep := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = int32(len(rep))
		cmap[match[v]] = int32(len(rep))
		rep = append(rep, int32(v))
	}
	cn := len(rep)
	// Build the coarse graph, merging parallel edges in a dense
	// accumulator that is cleared after each coarse vertex (edge
	// weights are positive, so acc[u] == 0 means u is unseen). Neighbours
	// are emitted in increasing id order, so the coarse graph — and the
	// whole seeded bisection — is deterministic.
	coarse := &wgraph{
		offsets: make([]int32, cn+1),
		neigh:   make([]int32, 0, len(w.neigh)),
		ewt:     make([]int64, 0, len(w.neigh)),
		vwt:     make([]int64, cn),
		totW:    w.totW,
		maxVwt:  1,
	}
	acc := make([]int64, cn)
	var keys []int32
	for c, v := range rep {
		keys = keys[:0]
		pair := [2]int32{v, match[v]}
		members := pair[:1]
		if match[v] != v {
			members = pair[:]
		}
		for _, f := range members {
			coarse.vwt[c] += w.vwt[f]
			for i := w.offsets[f]; i < w.offsets[f+1]; i++ {
				cu := cmap[w.neigh[i]]
				if int(cu) == c {
					continue
				}
				if acc[cu] == 0 {
					keys = append(keys, cu)
				}
				acc[cu] += w.ewt[i]
			}
		}
		slices.Sort(keys)
		for _, u := range keys {
			coarse.neigh = append(coarse.neigh, u)
			coarse.ewt = append(coarse.ewt, acc[u])
			acc[u] = 0
		}
		coarse.offsets[c+1] = int32(len(coarse.neigh))
		coarse.maxVwt = max(coarse.maxVwt, coarse.vwt[c])
	}
	return coarse, cmap
}

// initialPartition grows a region by BFS from a random seed until it
// holds frac of the total vertex weight (one half for a bisection).
func initialPartition(w *wgraph, rng *rand.Rand, frac float64) []uint8 {
	n := w.n()
	side := make([]uint8, n)
	for i := range side {
		side[i] = 1
	}
	visited := make([]bool, n)
	var grown int64
	// Truncation matches the historical w.totW / 2 exactly at frac 0.5.
	target := int64(frac * float64(w.totW))
	queue := make([]int32, 0, n)
	for grown < target {
		// Pick an unvisited seed (handles disconnected graphs).
		seed := -1
		for tries := 0; tries < 4; tries++ {
			c := rng.Intn(n)
			if !visited[c] {
				seed = c
				break
			}
		}
		if seed < 0 {
			for v := 0; v < n; v++ {
				if !visited[v] {
					seed = v
					break
				}
			}
		}
		if seed < 0 {
			break
		}
		queue = append(queue[:0], int32(seed))
		visited[seed] = true
		for len(queue) > 0 && grown < target {
			v := queue[0]
			queue = queue[1:]
			side[v] = 0
			grown += w.vwt[v]
			for i := w.offsets[v]; i < w.offsets[v+1]; i++ {
				u := w.neigh[i]
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return side
}

// gainBuckets is a max-priority queue of vertices keyed by FM gain, in
// the bucket form of Fiduccia and Mattheyses. A vertex's gain is
// bounded in magnitude by its weighted degree, so with d the largest
// weighted degree of the graph, bucket g+d lists every queued vertex of
// gain g in a doubly linked list, and top falls to the highest
// nonempty bucket as vertices pop. A vertex is queued at most once and
// moves between buckets when its gain changes, so the queue holds no
// stale entries. Ties pop last in, first out: of the vertices sharing
// the highest gain, the one that entered its bucket last pops first.
type gainBuckets struct {
	off        int64   // d: the bucket of gain 0
	head       []int32 // first vertex of each bucket, -1 if empty
	next, prev []int32 // list links of each queued vertex, -1 at the ends
	at         []int32 // bucket of each vertex, -1 if not queued
	top        int     // every bucket above top is empty
}

func newGainBuckets(n int, d int64) *gainBuckets {
	q := &gainBuckets{
		off:  d,
		head: make([]int32, 2*d+1),
		next: make([]int32, n),
		prev: make([]int32, n),
		at:   make([]int32, n),
		top:  -1,
	}
	for i := range q.head {
		q.head[i] = -1
	}
	for i := range q.at {
		q.at[i] = -1
	}
	return q
}

// maxWeightedDegree is the largest total edge weight at one vertex of
// w, the bound on any gain's magnitude.
func maxWeightedDegree(w *wgraph) int64 {
	var d int64
	for v := 0; v < w.n(); v++ {
		var wd int64
		for i := w.offsets[v]; i < w.offsets[v+1]; i++ {
			wd += w.ewt[i]
		}
		d = max(d, wd)
	}
	return d
}

// set queues v at gain g, moving it if it is already queued.
func (q *gainBuckets) set(v int32, g int64) {
	if q.at[v] >= 0 {
		q.remove(v)
	}
	b := int(g + q.off)
	h := q.head[b]
	q.next[v], q.prev[v] = h, -1
	if h >= 0 {
		q.prev[h] = v
	}
	q.head[b] = v
	q.at[v] = int32(b)
	q.top = max(q.top, b)
}

func (q *gainBuckets) remove(v int32) {
	p, nx := q.prev[v], q.next[v]
	if p >= 0 {
		q.next[p] = nx
	} else {
		q.head[q.at[v]] = nx
	}
	if nx >= 0 {
		q.prev[nx] = p
	}
	q.at[v] = -1
}

// best returns the highest queued gain; ok is false if q is empty.
func (q *gainBuckets) best() (g int64, ok bool) {
	for ; q.top >= 0; q.top-- {
		if q.head[q.top] >= 0 {
			return int64(q.top) - q.off, true
		}
	}
	return 0, false
}

// pop removes and returns a vertex of the highest gain, or -1 if q is
// empty.
func (q *gainBuckets) pop() int32 {
	if _, ok := q.best(); !ok {
		return -1
	}
	v := q.head[q.top]
	q.remove(v)
	return v
}

// fmRefine runs up to maxPasses Fiduccia–Mattheyses passes in place.
// Each pass tentatively moves boundary vertices in best-gain order
// (subject to balance) and keeps the best prefix. Each side's
// candidates live in its own gain buckets, so a pass costs O(m) plus
// the top cursors' fall. Each step takes the higher of the two sides'
// best gains; on a tie, the side heavier relative to its target gives
// up the vertex, and within a bucket the last vertex in moves first. A
// vertex that would overbalance the other side leaves the queue
// unmoved and re-enters when a neighbour's move changes its gain;
// moved vertices are locked for the rest of the pass, so a pass moves
// each vertex at most once. tol is the allowed imbalance (balanceTol
// or exactTol).
//
// bias shifts the balance constraint for fractional targets: it is the
// intended weight lead of side 0 over side 1 (target0 - target1, zero
// for a bisection), so the skip rule compares each side's deviation
// from its own target rather than raw weights.
func fmRefine(w *wgraph, side []uint8, tol float64, maxPasses int, bias int64) {
	n := w.n()
	imbal := int64(float64(w.totW) * tol)
	if imbal < w.maxVwt {
		imbal = w.maxVwt
	}
	gain := make([]int64, n)
	locked := make([]bool, n)
	moveOrder := make([]int32, 0, 256)
	d := maxWeightedDegree(w)
	qs := [2]*gainBuckets{newGainBuckets(n, d), newGainBuckets(n, d)}

	sideW := [2]int64{}
	for v := 0; v < n; v++ {
		sideW[side[v]] += w.vwt[v]
	}

	computeGain := func(v int) (g int64, boundary bool) {
		var ext, internal int64
		for i := w.offsets[v]; i < w.offsets[v+1]; i++ {
			if side[w.neigh[i]] != side[v] {
				ext += w.ewt[i]
			} else {
				internal += w.ewt[i]
			}
		}
		return ext - internal, ext > 0
	}

	for pass := 0; pass < maxPasses; pass++ {
		for v := 0; v < n; v++ {
			locked[v] = false
			g, boundary := computeGain(v)
			gain[v] = g
			if boundary {
				qs[side[v]].set(int32(v), g)
			}
		}
		moveOrder = moveOrder[:0]
		var cum, bestCum int64
		bestPrefix := 0
		for {
			g0, ok0 := qs[0].best()
			g1, ok1 := qs[1].best()
			if !ok0 && !ok1 {
				break
			}
			src := 0
			if !ok0 || ok1 && (g1 > g0 || g1 == g0 && sideW[1]+bias > sideW[0]) {
				src = 1
			}
			v := qs[src].pop()
			from := side[v]
			lean := bias
			if from == 1 {
				lean = -bias
			}
			if sideW[from]-w.vwt[v] < sideW[1-from]+w.vwt[v]-imbal+lean {
				continue // move would overbalance the other side
			}
			side[v] = 1 - from
			sideW[from] -= w.vwt[v]
			sideW[1-from] += w.vwt[v]
			locked[v] = true
			cum += gain[v]
			moveOrder = append(moveOrder, v)
			if cum > bestCum {
				bestCum = cum
				bestPrefix = len(moveOrder)
			}
			for i := w.offsets[v]; i < w.offsets[v+1]; i++ {
				u := w.neigh[i]
				if locked[u] {
					continue
				}
				if side[u] == side[v] {
					gain[u] -= 2 * w.ewt[i]
				} else {
					gain[u] += 2 * w.ewt[i]
				}
				qs[side[u]].set(u, gain[u])
			}
		}
		// Roll back moves beyond the best prefix.
		for i := len(moveOrder) - 1; i >= bestPrefix; i-- {
			v := moveOrder[i]
			from := side[v]
			side[v] = 1 - from
			sideW[from] -= w.vwt[v]
			sideW[1-from] += w.vwt[v]
		}
		if bestCum <= 0 {
			break
		}
	}
}

// exactBalance moves lowest-loss vertices from the overweight side,
// taken from gain buckets of that side's vertices, until side 0 is
// within one weight unit of its target. target2 is the
// doubled side-0 target (2 · target0); doubling keeps the arithmetic in
// integers for fractional targets. Passing w.totW (= 2 · totW/2) gives
// the historical exact bisection, matching the definition of bisection
// bandwidth; KWay passes doubled fractional targets.
func exactBalance(w *wgraph, side []uint8, target2 int64) {
	n := w.n()
	sideW := [2]int64{}
	for v := 0; v < n; v++ {
		sideW[side[v]] += w.vwt[v]
	}
	dev := 2*sideW[0] - target2 // side 0's doubled lead over its target
	if dev <= 1 && dev >= -1 {
		return
	}
	heavy := uint8(0)
	if dev < 0 {
		heavy = 1
	}
	gain := make([]int64, n)
	q := newGainBuckets(n, maxWeightedDegree(w))
	for v := 0; v < n; v++ {
		if side[v] != heavy {
			continue
		}
		var ext, internal int64
		for i := w.offsets[v]; i < w.offsets[v+1]; i++ {
			if side[w.neigh[i]] != side[v] {
				ext += w.ewt[i]
			} else {
				internal += w.ewt[i]
			}
		}
		gain[v] = ext - internal
		q.set(int32(v), gain[v])
	}
	over := func() int64 {
		if heavy == 0 {
			return 2*sideW[0] - target2
		}
		return target2 - 2*sideW[0]
	}
	for over() > 1 {
		v := q.pop()
		if v < 0 {
			break
		}
		side[v] = 1 - heavy
		sideW[heavy] -= w.vwt[v]
		sideW[1-heavy] += w.vwt[v]
		for i := w.offsets[v]; i < w.offsets[v+1]; i++ {
			u := w.neigh[i]
			if side[u] != heavy {
				continue
			}
			gain[u] += 2 * w.ewt[i]
			q.set(u, gain[u])
		}
	}
}

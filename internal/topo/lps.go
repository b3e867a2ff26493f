package topo

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/numtheory"
	"repro/internal/pgl"
)

// LPSInfo reports the algebraic shape of an LPS graph without building
// it.
type LPSInfo struct {
	P, Q     int64
	Kind     pgl.Kind // PSL when (p|q) = 1, PGL when (p|q) = -1
	Vertices int64
	Radix    int
	// Bipartite is true exactly in the PGL case.
	Bipartite bool
	// Ramanujan reports whether q > 2√p, the precondition of Definition 3
	// under which LPS(p,q) is guaranteed Ramanujan. The paper also uses
	// instances outside this regime (e.g. LPS(19,7) in Table II), which
	// are still well-defined Cayley graphs.
	Ramanujan bool
}

// LPSParams validates (p, q) and returns the derived parameters of
// LPS(p, q) per Definition 3: p, q distinct odd primes. When q > 2√p
// the graph is guaranteed Ramanujan (LPSInfo.Ramanujan).
func LPSParams(p, q int64) (LPSInfo, error) {
	if p == q {
		return LPSInfo{}, fmt.Errorf("topo: LPS requires distinct primes, got p = q = %d", p)
	}
	if p < 3 || !numtheory.IsPrime(p) {
		return LPSInfo{}, fmt.Errorf("topo: LPS p must be an odd prime, got %d", p)
	}
	if q < 3 || !numtheory.IsPrime(q) {
		return LPSInfo{}, fmt.Errorf("topo: LPS q must be an odd prime, got %d", q)
	}
	info := LPSInfo{P: p, Q: q, Radix: int(p + 1), Ramanujan: q*q > 4*p}
	if numtheory.Legendre(p, q) == 1 {
		info.Kind = pgl.PSL
		info.Vertices = (q*q*q - q) / 2
	} else {
		info.Kind = pgl.PGL
		info.Vertices = q*q*q - q
		info.Bipartite = true
	}
	return info, nil
}

// generatorMatrices returns the p+1 generator matrices of LPS(p, q):
// for each constrained four-square solution (α0,α1,α2,α3) of p, the
// matrix
//
//	[ α0+α1x+α3y   -α1y+α2+α3x ]
//	[ -α1y-α2+α3x   α0-α1x-α3y ]
//
// over F_q, where (x, y) solves x²+y²+1 ≡ 0 (mod q). Each matrix has
// determinant ≡ p (mod q) before canonicalization, so in the PSL case
// ((p|q) = 1) right-multiplication stays inside PSL.
func generatorMatrices(p, q int64) []pgl.Mat {
	x, y := numtheory.SolveXY(q)
	sols := numtheory.LPSGenerators(p)
	mats := make([]pgl.Mat, len(sols))
	for i, s := range sols {
		mats[i] = pgl.NewMat(
			s.A0+s.A1*x+s.A3*y,
			-s.A1*y+s.A2+s.A3*x,
			-s.A1*y-s.A2+s.A3*x,
			s.A0-s.A1*x-s.A3*y,
			q,
		).Canon(q)
	}
	return mats
}

// nondegenerate reports whether the LPS(p,q) generator matrices are
// pairwise projectively distinct and none is the identity coset, i.e.
// whether the Cayley graph is simple and exactly (p+1)-regular.
func nondegenerate(p, q int64) bool {
	mats := generatorMatrices(p, q)
	id := pgl.Mat{A: 1, B: 0, C: 0, D: 1}
	seen := make(map[int64]bool, len(mats))
	for _, m := range mats {
		if m == id {
			return false
		}
		k := m.Pack(q)
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// LPS constructs the LPS(p, q) Ramanujan graph of Definition 3 — the
// SpectralFly topology, the paper's primary contribution — as a named
// topology Instance. For distinct odd primes p, q it is the Cayley
// graph of PSL(2, F_q) (when the Legendre symbol (p|q) = 1) or
// PGL(2, F_q) (when (p|q) = -1) under the p+1 generators derived from
// the constrained four-square representations of p: a connected
// (p+1)-regular graph on (3-(p|q))(q³-q)/4 vertices. When q > 2√p its
// nontrivial adjacency eigenvalues satisfy |λ| ≤ 2√p, the optimal
// spectral expansion permitted by the Alon–Boppana bound (§II).
// Construction fails if the generator set degenerates (possible only
// far outside the Ramanujan regime).
//
// Vertex u is joined to u·s for each generator s, so the graph carries
// its graph.Cayley view: the identity, each CSR slot's generator, the
// left-multiplication table s·x and the group quotient u⁻¹·v. Routing
// and the distance folds answer every distance from one BFS through
// it.
func LPS(p, q int64) (*Instance, error) {
	info, err := LPSParams(p, q)
	if err != nil {
		return nil, err
	}
	group, err := pgl.NewGroup(q, info.Kind)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("LPS(%d,%d)", p, q)
	gens := generatorMatrices(p, q)
	n := group.Order()
	// right[u·k+j] = u·s_j, left[j][x] = s_j·x.
	right := make([]int32, n*len(gens))
	left := make([][]int32, len(gens))
	for j := range left {
		left[j] = make([]int32, n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		u := group.Element(i)
		for j, s := range gens {
			r, l := group.IndexOf(u.Mul(s, q)), group.IndexOf(s.Mul(u, q))
			if r < 0 || l < 0 {
				return nil, fmt.Errorf("topo: %s generator left the group at element %d", name, i)
			}
			right[i*len(gens)+j], left[j][i] = int32(r), int32(l)
			b.AddEdge(i, r)
		}
	}
	g := b.Build()
	if err := checkRegular(g, int(info.Vertices), info.Radix, name); err != nil {
		return nil, err
	}
	if len(gens) > 256 { // past graph.Cayley's generator limit (p > 255)
		return &Instance{Name: name, G: g}, nil
	}
	view, err := cayleyView(g, group, gens, right, left)
	if err != nil {
		return nil, fmt.Errorf("topo: %s: %w", name, err)
	}
	return &Instance{Name: name, G: g.WithCayley(view)}, nil
}

// cayleyView assembles the graph.Cayley view of an LPS graph g from
// its right- and left-multiplication tables. It fails if the generator
// set is not closed under inverses or a slot's neighbour is not u·s
// for exactly one generator s, which nondegenerate generator sets rule
// out.
func cayleyView(g *graph.Graph, group *pgl.Group, gens []pgl.Mat, right []int32, left [][]int32) (*graph.Cayley, error) {
	k := len(gens)
	id := group.Identity()
	inv := make([]uint8, k)
	for j, s := range gens { // the identity's row lists the generators
		i := slices.Index(right[id*k:(id+1)*k], int32(group.IndexOf(s.Adj(group.Q))))
		if i < 0 {
			return nil, fmt.Errorf("generator %v has no inverse in the generator set", s)
		}
		inv[j] = uint8(i)
	}
	gen := make([]uint8, 0, 2*g.M())
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			j := slices.Index(right[u*k:(u+1)*k], w)
			if j < 0 {
				return nil, fmt.Errorf("edge %d-%d is not a generator step", u, w)
			}
			gen = append(gen, uint8(j))
		}
	}
	return &graph.Cayley{Identity: id, Gen: gen, Inv: inv, Left: left,
		Quot: group.Quot, QuotBytes: group.Bytes()}, nil
}

// MustLPS is LPS but panics on error, for known-good parameters.
func MustLPS(p, q int64) *Instance {
	inst, err := LPS(p, q)
	if err != nil {
		panic(err)
	}
	return inst
}

// LPSFeasible enumerates all valid LPS(p, q) parameter pairs with
// p, q < maxPQ in the Ramanujan regime (q > 2√p) whose generator sets
// are nondegenerate — the point set of Figure 4 (upper left). Only the
// generator sets are materialized; no graphs are built.
func LPSFeasible(maxPQ int64) []Feasible {
	primes := numtheory.PrimesUpTo(maxPQ - 1)
	out := []Feasible{} // an empty set renders as [] in JSON, not null
	for _, p := range primes {
		if p < 3 {
			continue
		}
		for _, q := range primes {
			if q < 3 || q == p {
				continue
			}
			info, err := LPSParams(p, q)
			if err != nil || !info.Ramanujan || !nondegenerate(p, q) {
				continue
			}
			out = append(out, Feasible{
				Name:     fmt.Sprintf("LPS(%d,%d)", p, q),
				Radix:    info.Radix,
				Vertices: info.Vertices,
			})
		}
	}
	return out
}

package graph

import "fmt"

// Cayley is the group structure of a Cayley graph Cay(G, S): vertices
// are the elements of a group G, and x is joined to x·s for every
// generator s of a set S closed under inverses. Left multiplication by
// any group element is then an automorphism, so the distance from u to
// v is the distance from the identity to u⁻¹·v, and one BFS from the
// identity answers every distance query. The view lets graph and
// routing use that without knowing the group's arithmetic: topo.LPS
// attaches one to the graphs it builds (WithCayley), and graphs derived
// by RemoveEdges, AddEdges or FromEdges never carry one.
type Cayley struct {
	// Identity is the vertex of the group identity.
	Identity int
	// Gen holds, for each CSR slot, the generator of that slot's edge:
	// the i-th neighbour of x is x·s_j with j = Gens(x)[i]. Neighbours
	// are sorted by vertex, so slot order is not generator order.
	Gen []uint8
	// Inv[j] is the generator index of s_j⁻¹.
	Inv []uint8
	// Left is the k×n left-multiplication table: Left[j][x] = s_j·x.
	Left [][]int32
	// Quot returns the vertex of v⁻¹·w. It must not allocate.
	Quot func(v, w int) int
	// QuotBytes is the memory Quot reads (the group's elements and
	// lookup index).
	QuotBytes int64

	offsets []int32 // the graph's CSR offsets, for Gens
}

// Gens returns the generators of x's CSR slots: Neighbors(x)[i] is
// x·s_j for j = Gens(x)[i]. The slice aliases the view.
func (c *Cayley) Gens(x int) []uint8 {
	return c.Gen[c.offsets[x]:c.offsets[x+1]]
}

// Bytes returns the memory of the view: the slot generators, the
// inverse map, the left-multiplication table and what Quot reads.
func (c *Cayley) Bytes() int64 {
	b := int64(len(c.Gen)) + int64(len(c.Inv)) + c.QuotBytes
	for _, row := range c.Left {
		b += 4 * int64(len(row))
	}
	return b
}

// WithCayley returns a graph that shares g's vertices and edges and
// carries the Cayley view c. It panics if c's arrays do not fit g: one
// generator per CSR slot, at most 256 generators, one inverse and one
// n-entry left-multiplication row per generator, and an identity in
// range. The caller vouches for the group structure itself (topo's
// tests check it).
func (g *Graph) WithCayley(c *Cayley) *Graph {
	n, k := g.N(), len(c.Left)
	ok := len(c.Gen) == len(g.neigh) && k <= 256 && len(c.Inv) == k &&
		c.Identity >= 0 && c.Identity < n && c.Quot != nil
	for _, row := range c.Left {
		ok = ok && len(row) == n
	}
	if !ok {
		panic(fmt.Sprintf("graph: Cayley view (%d slot generators, %d generators, identity %d) does not fit a graph with %d vertices and %d slots",
			len(c.Gen), k, c.Identity, n, len(g.neigh)))
	}
	c.offsets = g.offsets
	h := *g
	h.cayley = c
	return &h
}

// Cayley returns the graph's Cayley view, or nil when it has none.
func (g *Graph) Cayley() *Cayley { return g.cayley }

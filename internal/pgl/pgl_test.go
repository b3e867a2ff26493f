package pgl

import (
	"math/rand"
	"testing"

	"repro/internal/numtheory"
)

func TestGroupOrders(t *testing.T) {
	cases := []struct {
		q    int64
		kind Kind
		want int
	}{
		{3, PGL, 24}, {3, PSL, 12},
		{5, PGL, 120}, {5, PSL, 60},
		{7, PGL, 336}, {7, PSL, 168},
		{11, PGL, 1320}, {11, PSL, 660},
		{13, PSL, 1092}, // LPS(23,13) in §VI-B has 1092 routers
	}
	for _, c := range cases {
		g := MustGroup(c.q, c.kind)
		if g.Order() != c.want {
			t.Errorf("%v(2,%d): order %d, want %d", c.kind, c.q, g.Order(), c.want)
		}
	}
}

func TestNewGroupRejectsBadQ(t *testing.T) {
	for _, q := range []int64{0, 1, 2, 4, 9, 15, 32771} { // 32771: prime, past maxQ
		if _, err := NewGroup(q, PGL); err == nil {
			t.Errorf("NewGroup(%d) should fail", q)
		}
	}
}

func TestCanonicalRepresentativesUnique(t *testing.T) {
	g := MustGroup(7, PGL)
	seen := map[int64]bool{}
	for i := 0; i < g.Order(); i++ {
		m := g.Element(i)
		if m.Canon(7) != m {
			t.Fatalf("element %d = %v is not canonical", i, m)
		}
		k := m.Pack(7)
		if seen[k] {
			t.Fatalf("duplicate element %v", m)
		}
		seen[k] = true
	}
}

func TestCanonScalarInvariance(t *testing.T) {
	const q = 11
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		m := NewMat(rng.Int63n(q), rng.Int63n(q), rng.Int63n(q), rng.Int63n(q), q)
		if m.Det(q) == 0 && m == (Mat{}) {
			continue
		}
		if (m == Mat{}) {
			continue
		}
		for lambda := int64(1); lambda < q; lambda++ {
			scaled := NewMat(m.A*lambda, m.B*lambda, m.C*lambda, m.D*lambda, q)
			if scaled.Canon(q) != m.Canon(q) {
				t.Fatalf("Canon not scalar-invariant: %v vs %v (λ=%d)", m, scaled, lambda)
			}
		}
	}
}

func TestCanonZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Canon of zero matrix must panic")
		}
	}()
	(Mat{}).Canon(5)
}

func TestMulAssociativeAndIdentity(t *testing.T) {
	const q = 7
	g := MustGroup(q, PGL)
	id := Mat{1, 0, 0, 1}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := g.Element(rng.Intn(g.Order()))
		b := g.Element(rng.Intn(g.Order()))
		c := g.Element(rng.Intn(g.Order()))
		if a.Mul(b, q).Mul(c, q).Canon(q) != a.Mul(b.Mul(c, q), q).Canon(q) {
			t.Fatalf("associativity fails for %v %v %v", a, b, c)
		}
		if a.Mul(id, q) != a || id.Mul(a, q) != a {
			t.Fatalf("identity fails for %v", a)
		}
	}
}

func TestAdjIsInverse(t *testing.T) {
	const q = 13
	g := MustGroup(q, PGL)
	idIdx := g.Identity()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a := g.Element(rng.Intn(g.Order()))
		prod := a.Mul(a.Adj(q), q)
		if g.IndexOf(prod) != idIdx {
			t.Fatalf("a·adj(a) != identity for %v: got %v", a, prod)
		}
	}
}

func TestGroupClosure(t *testing.T) {
	for _, kind := range []Kind{PGL, PSL} {
		const q = 5
		g := MustGroup(q, kind)
		for i := 0; i < g.Order(); i++ {
			for j := 0; j < g.Order(); j++ {
				prod := g.Element(i).Mul(g.Element(j), q)
				if g.IndexOf(prod) < 0 {
					t.Fatalf("%v(2,%d) not closed: %v·%v = %v", kind, q, g.Element(i), g.Element(j), prod)
				}
			}
		}
	}
}

func TestPSLIsSubgroupOfPGL(t *testing.T) {
	const q = 7
	psl := MustGroup(q, PSL)
	pgl := MustGroup(q, PGL)
	for i := 0; i < psl.Order(); i++ {
		if pgl.IndexOf(psl.Element(i)) < 0 {
			t.Fatalf("PSL element %v not in PGL", psl.Element(i))
		}
	}
	// PSL elements all have square determinant class.
	isSquare := make([]bool, q)
	for a := int64(1); a < q; a++ {
		isSquare[numtheory.MulMod(a, a, q)] = true
	}
	for i := 0; i < psl.Order(); i++ {
		if !isSquare[psl.Element(i).Det(q)] {
			t.Fatalf("PSL element %v has non-square det %d", psl.Element(i), psl.Element(i).Det(q))
		}
	}
}

func TestIndexOfRoundTrip(t *testing.T) {
	for _, g := range []*Group{MustGroup(11, PSL), MustGroup(7, PGL)} {
		for i := 0; i < g.Order(); i++ {
			if got := g.IndexOf(g.Element(i)); got != i {
				t.Fatalf("%v(2,%d): IndexOf(Element(%d)) = %d", g.K, g.Q, i, got)
			}
			// Any nonzero scalar multiple is the same coset.
			m := g.Element(i)
			if got := g.IndexOf(Mat{3 * m.A, 3 * m.B, 3 * m.C, 3 * m.D}); got != i {
				t.Fatalf("%v(2,%d): IndexOf(3·Element(%d)) = %d", g.K, g.Q, i, got)
			}
		}
		if got := g.IndexOf(Mat{}); got != -1 {
			t.Fatalf("%v(2,%d): IndexOf(zero matrix) = %d, want -1", g.K, g.Q, got)
		}
	}
}

// TestQuot pins Quot(i, j) to the index of Adj(Element(i))·Element(j)
// on every pair of a PSL and a PGL group, and checks the defining
// identity Element(i)·Element(Quot(i, j)) ~ Element(j).
func TestQuot(t *testing.T) {
	for _, g := range []*Group{MustGroup(7, PSL), MustGroup(5, PGL)} {
		q := g.Q
		for i := 0; i < g.Order(); i++ {
			for j := 0; j < g.Order(); j++ {
				want := g.IndexOf(g.Element(i).Adj(q).Mul(g.Element(j), q))
				got := g.Quot(i, j)
				if got != want || got < 0 {
					t.Fatalf("%v(2,%d): Quot(%d,%d) = %d, want %d", g.K, q, i, j, got, want)
				}
				if g.IndexOf(g.Element(i).Mul(g.Element(got), q)) != j {
					t.Fatalf("%v(2,%d): Element(%d)·Element(Quot) is not Element(%d)", g.K, q, i, j)
				}
			}
		}
	}
}

// TestModExact checks the multiply-shift remainder against % across
// the whole range Quot feeds it, for small and large q.
func TestModExact(t *testing.T) {
	for _, q := range []int64{3, 29, 43, 32749} {
		g := &Group{q: uint32(q), qm: ^uint64(0)/uint64(q) + 1}
		for _, x := range []uint32{0, 1, uint32(q) - 1, uint32(q), uint32(q) + 1, 2 * uint32(q*q), 1<<32 - 1} {
			if got := g.mod(x); got != int(x%uint32(q)) {
				t.Fatalf("q=%d: mod(%d) = %d, want %d", q, x, got, x%uint32(q))
			}
		}
		for x := uint32(0); x < 1<<20; x += 7 {
			if got := g.mod(x); got != int(x%uint32(q)) {
				t.Fatalf("q=%d: mod(%d) = %d, want %d", q, x, got, x%uint32(q))
			}
		}
	}
}

func TestIndexOfMissing(t *testing.T) {
	g := MustGroup(7, PSL)
	// Find a PGL element with non-square det; it must not be in PSL.
	nonSquare := int64(-1)
	isSquare := make([]bool, 7)
	for a := int64(1); a < 7; a++ {
		isSquare[numtheory.MulMod(a, a, 7)] = true
	}
	for a := int64(1); a < 7; a++ {
		if !isSquare[a] {
			nonSquare = a
			break
		}
	}
	m := Mat{1, 0, 0, nonSquare} // det = nonSquare
	if g.IndexOf(m) != -1 {
		t.Fatalf("PSL should not contain det=%d element", nonSquare)
	}
}

func TestPaperExampleVertexCoset(t *testing.T) {
	// §III Example 1: v = {[0 1;1 2],[0 2;2 4],[0 3;3 1],[0 4;4 3]} is one
	// element of PGL(2,F5); all four matrices must canonicalize identically.
	const q = 5
	ms := []Mat{{0, 1, 1, 2}, {0, 2, 2, 4}, {0, 3, 3, 1}, {0, 4, 4, 3}}
	c0 := ms[0].Canon(q)
	for _, m := range ms[1:] {
		if m.Canon(q) != c0 {
			t.Errorf("coset member %v canonicalizes to %v, want %v", m, m.Canon(q), c0)
		}
	}
	g := MustGroup(q, PGL)
	if g.IndexOf(ms[0]) < 0 {
		t.Error("paper example vertex not found in PGL(2,F5)")
	}
}

func TestIdentityIndexStable(t *testing.T) {
	g := MustGroup(5, PGL)
	id := g.Identity()
	if id < 0 {
		t.Fatal("identity not found")
	}
	if g.Element(id) != (Mat{1, 0, 0, 1}) {
		t.Fatalf("Identity() points at %v", g.Element(id))
	}
}

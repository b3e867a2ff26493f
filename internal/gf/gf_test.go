package gf

import (
	"testing"
	"testing/quick"
)

var testOrders = []int64{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49}

func TestNewRejectsNonPrimePowers(t *testing.T) {
	for _, q := range []int64{0, 1, 6, 10, 12, 15, 100} {
		if _, err := New(q); err == nil {
			t.Errorf("New(%d) should fail", q)
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	for _, q := range testOrders {
		f := MustNew(q)
		if f.Order() != q {
			t.Fatalf("GF(%d): Order() = %d", q, f.Order())
		}
		for a := int64(0); a < q; a++ {
			// Additive identity and inverse.
			if f.Add(a, 0) != a {
				t.Fatalf("GF(%d): a+0 != a for a=%d", q, a)
			}
			if f.Add(a, f.Neg(a)) != 0 {
				t.Fatalf("GF(%d): a+(-a) != 0 for a=%d", q, a)
			}
			// Multiplicative identity, absorbing zero.
			if f.Mul(a, 1) != a {
				t.Fatalf("GF(%d): a*1 != a for a=%d", q, a)
			}
			if f.Mul(a, 0) != 0 {
				t.Fatalf("GF(%d): a*0 != 0 for a=%d", q, a)
			}
			if a != 0 {
				if f.Mul(a, f.Inv(a)) != 1 {
					t.Fatalf("GF(%d): a*a⁻¹ != 1 for a=%d", q, a)
				}
			}
		}
	}
}

func TestFieldCommutativityAssociativityDistributivity(t *testing.T) {
	for _, q := range []int64{4, 9, 27, 7} {
		f := MustNew(q)
		for a := int64(0); a < q; a++ {
			for b := int64(0); b < q; b++ {
				if f.Add(a, b) != f.Add(b, a) {
					t.Fatalf("GF(%d): add not commutative", q)
				}
				if f.Mul(a, b) != f.Mul(b, a) {
					t.Fatalf("GF(%d): mul not commutative", q)
				}
				for c := int64(0); c < q; c++ {
					if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
						t.Fatalf("GF(%d): add not associative", q)
					}
					if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
						t.Fatalf("GF(%d): mul not associative", q)
					}
					if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
						t.Fatalf("GF(%d): not distributive", q)
					}
				}
			}
		}
	}
}

func TestCharacteristic(t *testing.T) {
	cases := map[int64][2]int64{4: {2, 2}, 8: {2, 3}, 9: {3, 2}, 27: {3, 3}, 25: {5, 2}, 7: {7, 1}}
	for q, pm := range cases {
		f := MustNew(q)
		if f.p != pm[0] || f.m != pm[1] {
			t.Errorf("GF(%d): char=%d deg=%d, want %d,%d", q, f.p, f.m, pm[0], pm[1])
		}
		// Adding 1 to itself p times gives 0.
		x := int64(0)
		for i := int64(0); i < pm[0]; i++ {
			x = f.Add(x, 1)
		}
		if x != 0 {
			t.Errorf("GF(%d): p·1 = %d, want 0", q, x)
		}
	}
}

func TestPrimitiveElementOrder(t *testing.T) {
	for _, q := range testOrders {
		f := MustNew(q)
		g := f.Primitive()
		seen := map[int64]bool{}
		x := int64(1)
		for i := int64(0); i < q-1; i++ {
			if seen[x] {
				t.Fatalf("GF(%d): primitive element %d has order < q-1", q, g)
			}
			seen[x] = true
			x = f.Mul(x, g)
		}
		if x != 1 {
			t.Fatalf("GF(%d): g^(q-1) = %d != 1", q, x)
		}
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	for _, q := range testOrders {
		f := MustNew(q)
		for a := int64(1); a < q; a++ {
			if f.PrimPow(f.logTb[a]) != a {
				t.Errorf("GF(%d): exp(log(%d)) != %d", q, a, a)
			}
		}
		if f.PrimPow(-1) != f.Inv(f.Primitive()) {
			t.Errorf("GF(%d): PrimPow(-1) != g⁻¹", q)
		}
	}
}

func TestSquaresCount(t *testing.T) {
	for _, q := range testOrders {
		f := MustNew(q)
		sq := f.Squares()
		if f.p == 2 {
			if int64(len(sq)) != q-1 {
				t.Errorf("GF(%d) char 2: %d squares, want %d", q, len(sq), q-1)
			}
			continue
		}
		if int64(len(sq)) != (q-1)/2 {
			t.Errorf("GF(%d): %d nonzero squares, want %d", q, len(sq), (q-1)/2)
		}
		// Every square should be a²  for some a.
		squareSet := map[int64]bool{}
		for a := int64(1); a < q; a++ {
			squareSet[f.Mul(a, a)] = true
		}
		for _, s := range sq {
			if !squareSet[s] {
				t.Errorf("GF(%d): %d claimed square but not a²", q, s)
			}
		}
		if len(f.NonSquares())+len(sq) != int(q-1) {
			t.Errorf("GF(%d): squares+nonsquares != q-1", q)
		}
	}
}

func TestSquaresSymmetricWhenQ1Mod4(t *testing.T) {
	// -1 is a square iff q ≡ 1 (mod 4); then the residue set is symmetric.
	for _, q := range []int64{5, 9, 13, 25, 49} {
		f := MustNew(q)
		if !f.IsSquare(f.Neg(1)) {
			t.Errorf("GF(%d): -1 should be a square (q ≡ 1 mod 4)", q)
		}
		for _, s := range f.Squares() {
			if !f.IsSquare(f.Neg(s)) {
				t.Errorf("GF(%d): residues not symmetric at %d", q, s)
			}
		}
	}
	for _, q := range []int64{3, 7, 11, 27} { // q ≡ 3 mod 4
		f := MustNew(q)
		if f.IsSquare(f.Neg(1)) {
			t.Errorf("GF(%d): -1 should be a non-square (q ≡ 3 mod 4)", q)
		}
	}
}

func TestPow(t *testing.T) {
	f := MustNew(9)
	for a := int64(0); a < 9; a++ {
		want := int64(1)
		for e := int64(0); e < 12; e++ {
			if got := f.Pow(a, e); got != want {
				t.Fatalf("GF(9): Pow(%d,%d) = %d want %d", a, e, got, want)
			}
			want = f.Mul(want, a)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) must panic")
		}
	}()
	MustNew(5).Inv(0)
}

func TestPrimePowerDecomposition(t *testing.T) {
	cases := []struct {
		q, p, m int64
		ok      bool
	}{
		{4, 2, 2, true}, {9, 3, 2, true}, {27, 3, 3, true}, {7, 7, 1, true},
		{6, 0, 0, false}, {1, 0, 0, false}, {12, 0, 0, false},
	}
	for _, c := range cases {
		p, m, ok := PrimePower(c.q)
		if ok != c.ok || p != c.p || m != c.m {
			t.Errorf("PrimePower(%d) = (%d,%d,%v), want (%d,%d,%v)", c.q, p, m, ok, c.p, c.m, c.ok)
		}
	}
}

func TestFrobeniusProperty(t *testing.T) {
	// (a+b)^p = a^p + b^p in characteristic p.
	for _, q := range []int64{9, 27, 4, 8, 25} {
		f := MustNew(q)
		p := f.p
		check := func(a, b uint8) bool {
			x, y := int64(a)%q, int64(b)%q
			return f.Pow(f.Add(x, y), p) == f.Add(f.Pow(x, p), f.Pow(y, p))
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("GF(%d): Frobenius fails: %v", q, err)
		}
	}
}

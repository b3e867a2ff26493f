package numtheory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestModNormalizes(t *testing.T) {
	cases := []struct{ a, m, want int64 }{
		{7, 5, 2}, {-7, 5, 3}, {0, 5, 0}, {5, 5, 0}, {-5, 5, 0}, {-1, 7, 6},
	}
	for _, c := range cases {
		if got := Mod(c.a, c.m); got != c.want {
			t.Errorf("Mod(%d,%d)=%d want %d", c.a, c.m, got, c.want)
		}
	}
}

func TestModPanicsOnNonPositiveModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for modulus 0")
		}
	}()
	Mod(1, 0)
}

func TestMulModMatchesBigValues(t *testing.T) {
	// Products that overflow int64 must still be exact.
	const m = int64(1)<<62 - 57
	a := int64(1)<<61 + 12345
	b := int64(1)<<60 + 99999
	got := MulMod(a, b, m)
	// Verify with repeated-doubling addition chain.
	want := addmulRef(a%m, b%m, m)
	if got != want {
		t.Fatalf("MulMod overflow case: got %d want %d", got, want)
	}
}

func addmulRef(a, b, m int64) int64 {
	var acc int64
	for b > 0 {
		if b&1 == 1 {
			acc = (acc + a) % m
		}
		a = (a + a) % m
		b >>= 1
	}
	return acc
}

func TestPowModSmall(t *testing.T) {
	if got := PowMod(2, 10, 1000); got != 24 {
		t.Errorf("2^10 mod 1000 = %d, want 24", got)
	}
	if got := PowMod(3, 0, 7); got != 1 {
		t.Errorf("3^0 mod 7 = %d, want 1", got)
	}
	if got := PowMod(0, 5, 7); got != 0 {
		t.Errorf("0^5 mod 7 = %d, want 0", got)
	}
}

func TestPowModFermat(t *testing.T) {
	// a^(p-1) ≡ 1 mod p for prime p and a not divisible by p.
	for _, p := range []int64{3, 5, 7, 101, 997} {
		for a := int64(1); a < 20; a++ {
			if a%p == 0 {
				continue
			}
			if got := PowMod(a, p-1, p); got != 1 {
				t.Errorf("Fermat fails: %d^(%d-1) mod %d = %d", a, p, p, got)
			}
		}
	}
}

func TestExtGCDIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := rng.Int63n(1 << 30)
		b := rng.Int63n(1 << 30)
		g, x, y := ExtGCD(a, b)
		if a*x+b*y != g {
			t.Fatalf("Bezout identity fails for (%d,%d): %d*%d+%d*%d != %d", a, b, a, x, b, y, g)
		}
		if a%g != 0 || b%g != 0 {
			t.Fatalf("gcd %d does not divide %d,%d", g, a, b)
		}
	}
}

func TestInvMod(t *testing.T) {
	for _, p := range []int64{5, 7, 13, 101} {
		for a := int64(1); a < p; a++ {
			inv := InvMod(a, p)
			if MulMod(a, inv, p) != 1 {
				t.Errorf("InvMod(%d,%d)=%d but product != 1", a, p, inv)
			}
		}
	}
}

func TestInvModPanicsOnNonInvertible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for InvMod(4, 8)")
		}
	}()
	InvMod(4, 8)
}

func TestIsPrimeKnownValues(t *testing.T) {
	primes := []int64{2, 3, 5, 7, 11, 13, 17, 97, 101, 7919, 104729, 1000003}
	composites := []int64{0, 1, 4, 6, 9, 15, 91, 561, 1105, 25326001, 3215031751}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d)=false, want true", p)
		}
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d)=true, want false", c)
		}
	}
}

func TestPrimesUpTo(t *testing.T) {
	got := PrimesUpTo(30)
	want := []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	if len(got) != len(want) {
		t.Fatalf("PrimesUpTo(30) len=%d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("PrimesUpTo(30)[%d]=%d want %d", i, got[i], want[i])
		}
	}
	if PrimesUpTo(1) != nil {
		t.Error("PrimesUpTo(1) should be nil")
	}
}

func TestPrimesUpToAgreesWithIsPrime(t *testing.T) {
	set := map[int64]bool{}
	for _, p := range PrimesUpTo(2000) {
		set[p] = true
	}
	for n := int64(0); n <= 2000; n++ {
		if set[n] != IsPrime(n) {
			t.Errorf("sieve and Miller-Rabin disagree at %d", n)
		}
	}
}

func TestLegendreMultiplicativity(t *testing.T) {
	for _, p := range []int64{7, 11, 13, 101} {
		for a := int64(1); a < p; a++ {
			for b := int64(1); b < p; b++ {
				if Legendre(a, p)*Legendre(b, p) != Legendre(a*b, p) {
					t.Fatalf("Legendre not multiplicative: p=%d a=%d b=%d", p, a, b)
				}
			}
		}
	}
}

func TestLegendreCountsResidues(t *testing.T) {
	// Exactly (p-1)/2 residues and (p-1)/2 non-residues.
	for _, p := range []int64{5, 7, 23, 97} {
		plus, minus := 0, 0
		for a := int64(1); a < p; a++ {
			switch Legendre(a, p) {
			case 1:
				plus++
			case -1:
				minus++
			}
		}
		if int64(plus) != (p-1)/2 || int64(minus) != (p-1)/2 {
			t.Errorf("p=%d: %d residues, %d non-residues", p, plus, minus)
		}
	}
}

func TestLegendrePaperExample(t *testing.T) {
	// From §III Example 1: (3|5) = -1, so LPS(3,5) uses PGL(2,F5).
	if Legendre(3, 5) != -1 {
		t.Errorf("(3|5) = %d, want -1", Legendre(3, 5))
	}
	// From §VI-B: LPS(23,13) has 1092 = (13^3-13)/2 vertices, so (23|13) = +1.
	if Legendre(23, 13) != 1 {
		t.Errorf("(23|13) = %d, want +1", Legendre(23, 13))
	}
}

func TestSqrtMod(t *testing.T) {
	for _, p := range []int64{3, 5, 7, 11, 13, 17, 97, 101, 997} {
		for a := int64(0); a < p; a++ {
			r, ok := SqrtMod(a, p)
			if Legendre(a, p) == -1 {
				if ok {
					t.Errorf("SqrtMod(%d,%d) returned ok for non-residue", a, p)
				}
				continue
			}
			if !ok {
				t.Errorf("SqrtMod(%d,%d) failed for residue", a, p)
				continue
			}
			if MulMod(r, r, p) != a {
				t.Errorf("SqrtMod(%d,%d)=%d but r² = %d", a, p, r, MulMod(r, r, p))
			}
		}
	}
}

func TestSolveXY(t *testing.T) {
	for _, q := range []int64{3, 5, 7, 11, 13, 17, 19, 101, 499} {
		x, y := SolveXY(q)
		lhs := Mod(x*x+y*y+1, q)
		if lhs != 0 {
			t.Errorf("SolveXY(%d)=(%d,%d): x²+y²+1 = %d mod %d", q, x, y, lhs, q)
		}
	}
}

func TestSolveXYPaperExample(t *testing.T) {
	// §III Example 1 uses (x,y) = (0,2) for q=5: 0+4+1 = 5 ≡ 0.
	x, y := SolveXY(5)
	if Mod(x*x+y*y+1, 5) != 0 {
		t.Fatalf("invalid solution (%d,%d) for q=5", x, y)
	}
}

func TestLPSGeneratorsCount(t *testing.T) {
	// Definition 3 yields exactly p+1 generators.
	for _, p := range []int64{3, 5, 7, 11, 13, 17, 19, 23, 29, 53, 71, 89} {
		gens := LPSGenerators(p)
		if int64(len(gens)) != p+1 {
			t.Errorf("LPSGenerators(%d): %d generators, want %d", p, len(gens), p+1)
		}
		for _, g := range gens {
			if g.Norm() != p {
				t.Errorf("p=%d: generator %+v has norm %d", p, g, g.Norm())
			}
		}
	}
}

func TestLPSGeneratorsParity(t *testing.T) {
	for _, p := range []int64{5, 13, 17, 29} { // p ≡ 1 (mod 4)
		for _, g := range LPSGenerators(p) {
			if g.A0 <= 0 || g.A0%2 == 0 {
				t.Errorf("p=%d ≡ 1 mod 4: generator %+v violates α0>0 odd", p, g)
			}
		}
	}
	for _, p := range []int64{3, 7, 11, 19, 23} { // p ≡ 3 (mod 4)
		for _, g := range LPSGenerators(p) {
			okEven := g.A0 > 0 && g.A0%2 == 0
			okZero := g.A0 == 0 && g.A1 > 0
			if !okEven && !okZero {
				t.Errorf("p=%d ≡ 3 mod 4: generator %+v violates constraints", p, g)
			}
		}
	}
}

func TestLPSGeneratorsPaperExample(t *testing.T) {
	// §III Example 1: for p=3 the solutions are
	// (0,1,1,1), (0,1,-1,-1), (0,1,-1,1), (0,1,1,-1).
	gens := LPSGenerators(3)
	want := []FourSquare{
		{0, 1, -1, -1}, {0, 1, -1, 1}, {0, 1, 1, -1}, {0, 1, 1, 1},
	}
	if len(gens) != len(want) {
		t.Fatalf("LPSGenerators(3) = %v, want %v", gens, want)
	}
	for i := range want {
		if gens[i] != want[i] {
			t.Errorf("LPSGenerators(3)[%d] = %+v, want %+v", i, gens[i], want[i])
		}
	}
}

func TestLPSGeneratorsClosedUnderConjugation(t *testing.T) {
	// The generator set must be symmetric: the conjugate (inverse) of each
	// generator is also a generator, possibly after sign normalization when
	// α0 = 0 (where ±(0,a1,a2,a3) represent the same group element).
	for _, p := range []int64{3, 5, 7, 11, 13, 23} {
		gens := LPSGenerators(p)
		set := map[FourSquare]bool{}
		for _, g := range gens {
			set[g] = true
		}
		for _, g := range gens {
			c := g.Conjugate()
			neg := FourSquare{-c.A0, -c.A1, -c.A2, -c.A3}
			if !set[c] && !set[neg] {
				t.Errorf("p=%d: conjugate of %+v not in generator set", p, g)
			}
		}
	}
}

func TestFourSquareNormProperty(t *testing.T) {
	f := func(a0, a1, a2, a3 int16) bool {
		fs := FourSquare{int64(a0), int64(a1), int64(a2), int64(a3)}
		n := fs.Norm()
		return n >= 0 && n == fs.Conjugate().Norm()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestISqrt(t *testing.T) {
	for n := int64(0); n < 10000; n++ {
		r := isqrt(n)
		if r*r > n || (r+1)*(r+1) <= n {
			t.Fatalf("isqrt(%d)=%d incorrect", n, r)
		}
	}
	big := int64(1) << 62
	r := isqrt(big)
	if r*r > big || (r+1)*(r+1) <= big {
		t.Fatalf("isqrt(2^62)=%d incorrect", r)
	}
}

func TestMulModProperty(t *testing.T) {
	f := func(a, b int64, mRaw uint32) bool {
		m := int64(mRaw%100000) + 1
		got := MulMod(a, b, m)
		want := addmulRef(Mod(a, m), Mod(b, m), m)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

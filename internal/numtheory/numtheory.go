// Package numtheory provides the elementary number-theoretic machinery
// required by the LPS (Lubotzky–Phillips–Sarnak) Ramanujan graph
// construction and the other algebraic topologies studied in the
// SpectralFly paper: primality testing, modular arithmetic, Legendre
// symbols, square roots modulo a prime, solutions of x²+y²+1 ≡ 0 (mod q),
// and the constrained four-square decompositions of a prime p that define
// the LPS generator set.
//
// All functions operate on int64 values well inside the range where the
// intermediate products fit in (checked) 128-bit arithmetic via math/bits,
// which is ample for the parameter ranges in the paper (p, q < 300 for
// topology generation; q up to a few thousand for stress tests).
package numtheory

import (
	"fmt"
	"math/bits"
)

// Mod returns a mod m normalized into [0, m). m must be positive.
func Mod(a, m int64) int64 {
	if m <= 0 {
		panic(fmt.Sprintf("numtheory: non-positive modulus %d", m))
	}
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// MulMod returns (a*b) mod m without intermediate overflow.
// a and b are normalized into [0, m) first. m must be positive.
func MulMod(a, b, m int64) int64 {
	a, b = Mod(a, m), Mod(b, m)
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	_, rem := bits.Div64(hi%uint64(m), lo, uint64(m))
	return int64(rem)
}

// PowMod returns a^e mod m using binary exponentiation. e must be
// non-negative and m positive.
func PowMod(a, e, m int64) int64 {
	if e < 0 {
		panic(fmt.Sprintf("numtheory: negative exponent %d", e))
	}
	a = Mod(a, m)
	result := Mod(1, m)
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, a, m)
		}
		a = MulMod(a, a, m)
		e >>= 1
	}
	return result
}

// ExtGCD returns (g, x, y) such that a*x + b*y = g = gcd(a, b).
func ExtGCD(a, b int64) (g, x, y int64) {
	if b == 0 {
		if a < 0 {
			return -a, -1, 0
		}
		return a, 1, 0
	}
	g, x1, y1 := ExtGCD(b, a%b)
	return g, y1, x1 - (a/b)*y1
}

// InvMod returns the multiplicative inverse of a modulo m.
// It panics if gcd(a, m) != 1.
func InvMod(a, m int64) int64 {
	a = Mod(a, m)
	g, x, _ := ExtGCD(a, m)
	if g != 1 {
		panic(fmt.Sprintf("numtheory: %d has no inverse mod %d (gcd=%d)", a, m, g))
	}
	return Mod(x, m)
}

// IsPrime reports whether n is prime. It uses deterministic Miller–Rabin
// with a witness set valid for all 64-bit integers.
func IsPrime(n int64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	d := n - 1
	r := 0
	for d%2 == 0 {
		d /= 2
		r++
	}
	// Sufficient deterministic witness set for n < 3.3e24 (Sorenson–Webster).
	for _, a := range []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := PowMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = MulMod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// PrimesUpTo returns all primes <= n in increasing order using a sieve.
func PrimesUpTo(n int64) []int64 {
	if n < 2 {
		return nil
	}
	sieve := make([]bool, n+1)
	var primes []int64
	for i := int64(2); i <= n; i++ {
		if sieve[i] {
			continue
		}
		primes = append(primes, i)
		for j := i * i; j <= n; j += i {
			sieve[j] = true
		}
	}
	return primes
}

// Legendre returns the Legendre symbol (a|p) for an odd prime p:
// +1 if a is a nonzero quadratic residue mod p, -1 if a is a
// non-residue, and 0 if p divides a.
func Legendre(a, p int64) int {
	if p < 3 || p%2 == 0 {
		panic(fmt.Sprintf("numtheory: Legendre symbol needs odd prime, got %d", p))
	}
	a = Mod(a, p)
	if a == 0 {
		return 0
	}
	r := PowMod(a, (p-1)/2, p)
	if r == 1 {
		return 1
	}
	return -1
}

// SqrtMod returns a square root of a modulo an odd prime p using the
// Tonelli–Shanks algorithm, and true when a is a quadratic residue.
// For non-residues it returns (0, false).
func SqrtMod(a, p int64) (int64, bool) {
	a = Mod(a, p)
	if a == 0 {
		return 0, true
	}
	if Legendre(a, p) != 1 {
		return 0, false
	}
	if p%4 == 3 {
		return PowMod(a, (p+1)/4, p), true
	}
	// Tonelli–Shanks: write p-1 = q*2^s with q odd.
	q := p - 1
	s := 0
	for q%2 == 0 {
		q /= 2
		s++
	}
	// Find a non-residue z.
	var z int64 = 2
	for Legendre(z, p) != -1 {
		z++
	}
	m := s
	c := PowMod(z, q, p)
	t := PowMod(a, q, p)
	r := PowMod(a, (q+1)/2, p)
	for t != 1 {
		// Find least i in (0, m) with t^(2^i) == 1.
		i := 0
		t2 := t
		for t2 != 1 {
			t2 = MulMod(t2, t2, p)
			i++
			if i == m {
				return 0, false // unreachable for residues
			}
		}
		b := PowMod(c, 1<<uint(m-i-1), p)
		m = i
		c = MulMod(b, b, p)
		t = MulMod(t, c, p)
		r = MulMod(r, b, p)
	}
	return r, true
}

// SolveXY returns a solution (x, y) of x² + y² + 1 ≡ 0 (mod q) for an odd
// prime q. Such a solution always exists; the search is O(q) worst case.
// The returned solution is deterministic: the one with smallest x, then
// smallest y.
func SolveXY(q int64) (x, y int64) {
	if q < 3 || !IsPrime(q) {
		panic(fmt.Sprintf("numtheory: SolveXY requires odd prime, got %d", q))
	}
	for x = 0; x < q; x++ {
		// Need y² ≡ -1 - x² (mod q).
		target := Mod(-1-MulMod(x, x, q), q)
		if y, ok := SqrtMod(target, q); ok {
			// Normalize to the smaller of y, q-y for determinism.
			if y > q-y && q-y != 0 {
				y = q - y
			}
			return x, y
		}
	}
	panic(fmt.Sprintf("numtheory: no solution of x^2+y^2+1=0 mod %d (impossible for prime)", q))
}

// FourSquare is an integer solution (A0, A1, A2, A3) of
// A0² + A1² + A2² + A3² = p.
type FourSquare struct {
	A0, A1, A2, A3 int64
}

// Norm returns A0² + A1² + A2² + A3².
func (f FourSquare) Norm() int64 {
	return f.A0*f.A0 + f.A1*f.A1 + f.A2*f.A2 + f.A3*f.A3
}

// Conjugate returns the quaternion conjugate (A0, -A1, -A2, -A3), which
// corresponds to the inverse generator in the LPS construction.
func (f FourSquare) Conjugate() FourSquare {
	return FourSquare{f.A0, -f.A1, -f.A2, -f.A3}
}

// LPSGenerators enumerates the p+1 four-square representations of the odd
// prime p satisfying the LPS sign/parity constraints of Definition 3:
//
//   - if p ≡ 1 (mod 4): α0 > 0 and α0 odd;
//   - if p ≡ 3 (mod 4): α0 > 0 and α0 even, or α0 = 0 and α1 > 0.
//
// The result is sorted lexicographically and always has exactly p+1
// entries (a classical consequence of Jacobi's four-square theorem).
func LPSGenerators(p int64) []FourSquare {
	if p < 3 || !IsPrime(p) || p == 2 {
		panic(fmt.Sprintf("numtheory: LPSGenerators requires odd prime, got %d", p))
	}
	var out []FourSquare
	bound := isqrt(p)
	appendSol := func(a0, a1, a2, a3 int64) {
		out = append(out, FourSquare{a0, a1, a2, a3})
	}
	for a0 := int64(0); a0 <= bound; a0++ {
		r0 := p - a0*a0
		if r0 < 0 {
			break
		}
		switch p % 4 {
		case 1:
			if a0 == 0 || a0%2 == 0 {
				continue
			}
		case 3:
			if a0%2 != 0 {
				continue
			}
		}
		b1 := isqrt(r0)
		for a1 := -b1; a1 <= b1; a1++ {
			if a0 == 0 && a1 <= 0 {
				continue
			}
			r1 := r0 - a1*a1
			if r1 < 0 {
				continue
			}
			b2 := isqrt(r1)
			for a2 := -b2; a2 <= b2; a2++ {
				r2 := r1 - a2*a2
				if r2 < 0 {
					continue
				}
				a3 := isqrt(r2)
				if a3*a3 != r2 {
					continue
				}
				if a3 == 0 {
					appendSol(a0, a1, a2, 0)
				} else {
					appendSol(a0, a1, a2, a3)
					appendSol(a0, a1, a2, -a3)
				}
			}
		}
	}
	sortFourSquares(out)
	return out
}

func sortFourSquares(s []FourSquare) {
	// Insertion sort keeps this dependency-free; generator sets are tiny (p+1).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && lessFS(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func lessFS(a, b FourSquare) bool {
	switch {
	case a.A0 != b.A0:
		return a.A0 < b.A0
	case a.A1 != b.A1:
		return a.A1 < b.A1
	case a.A2 != b.A2:
		return a.A2 < b.A2
	default:
		return a.A3 < b.A3
	}
}

// isqrt returns floor(sqrt(n)) for n >= 0.
func isqrt(n int64) int64 {
	if n < 0 {
		panic("numtheory: isqrt of negative number")
	}
	if n == 0 {
		return 0
	}
	x := int64(1) << uint((bits.Len64(uint64(n))+1)/2)
	for {
		y := (x + n/x) / 2
		if y >= x {
			return x
		}
		x = y
	}
}

// Package gf implements arithmetic in finite fields GF(p^m) for small
// prime powers. It is the substrate for the McKay–Miller–Širáň (SlimFly)
// and Paley graph constructions, which require prime-power orders such as
// GF(4), GF(9) and GF(27) in addition to prime fields.
//
// Field elements are represented by their index in [0, q). For prime
// fields the index is the residue itself; for extension fields the index
// encodes the coefficient vector of the residue polynomial in base p
// (least-significant coefficient first). Addition, multiplication and
// inversion are table-driven, which is ideal for the small orders (q a
// few hundred at most) used by the topology constructors.
package gf

import (
	"fmt"

	"repro/internal/numtheory"
)

// Field is a finite field GF(p^m) with precomputed operation tables.
// The zero element has index 0 and the multiplicative identity index 1
// in prime fields; in extension fields the identity is the constant
// polynomial 1, which also has index 1.
type Field struct {
	p, m  int64 // characteristic and extension degree
	q     int64 // order p^m
	add   []int64
	mul   []int64
	neg   []int64
	inv   []int64 // inv[0] unused
	prim  int64   // a primitive element (generator of the unit group)
	logTb []int64 // discrete log base prim; logTb[0] = -1
	expTb []int64 // expTb[i] = prim^i, length q-1
}

// New returns the finite field of order q = p^m. q must be a prime power
// with q >= 2; otherwise an error is returned. Fields are deterministic:
// the same q always produces the same tables (the lexicographically first
// monic irreducible polynomial and the smallest primitive element are
// chosen).
func New(q int64) (*Field, error) {
	p, m, ok := primePower(q)
	if !ok {
		return nil, fmt.Errorf("gf: %d is not a prime power", q)
	}
	f := &Field{p: p, m: m, q: q}
	if m == 1 {
		f.buildPrimeTables()
	} else {
		poly, err := findIrreducible(p, m)
		if err != nil {
			return nil, err
		}
		f.buildExtensionTables(poly)
	}
	if err := f.findPrimitive(); err != nil {
		return nil, err
	}
	return f, nil
}

// MustNew is New but panics on error; for use with constant prime powers.
func MustNew(q int64) *Field {
	f, err := New(q)
	if err != nil {
		panic(err)
	}
	return f
}

// Order returns q = p^m.
func (f *Field) Order() int64 { return f.q }

// Add returns a+b.
func (f *Field) Add(a, b int64) int64 { return f.add[a*f.q+b] }

// Neg returns -a.
func (f *Field) Neg(a int64) int64 { return f.neg[a] }

// Mul returns a*b.
func (f *Field) Mul(a, b int64) int64 { return f.mul[a*f.q+b] }

// Inv returns a⁻¹; it panics if a is zero.
func (f *Field) Inv(a int64) int64 {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.inv[a]
}

// Pow returns a^e for e >= 0 (with 0^0 = 1).
func (f *Field) Pow(a, e int64) int64 {
	if e < 0 {
		panic("gf: negative exponent")
	}
	result := int64(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Mul(base, base)
		e >>= 1
	}
	return result
}

// Primitive returns a fixed primitive element (unit-group generator).
func (f *Field) Primitive() int64 { return f.prim }

// PrimPow returns Primitive()^i computed via the exponent table;
// i may be any integer (negative exponents wrap modulo q-1).
func (f *Field) PrimPow(i int64) int64 {
	n := f.q - 1
	i = ((i % n) + n) % n
	return f.expTb[i]
}

// IsSquare reports whether a is a square in the field (0 counts as a
// square). For odd q, nonzero a is a square iff its discrete log is even.
// In characteristic 2 every element is a square.
func (f *Field) IsSquare(a int64) bool {
	if a == 0 {
		return true
	}
	if f.p == 2 {
		return true
	}
	return f.logTb[a]%2 == 0
}

// Squares returns the set of nonzero squares (quadratic residues).
func (f *Field) Squares() []int64 {
	var out []int64
	for a := int64(1); a < f.q; a++ {
		if f.IsSquare(a) {
			out = append(out, a)
		}
	}
	return out
}

// NonSquares returns the set of non-squares.
func (f *Field) NonSquares() []int64 {
	var out []int64
	for a := int64(1); a < f.q; a++ {
		if !f.IsSquare(a) {
			out = append(out, a)
		}
	}
	return out
}

// Elements returns all element indices 0..q-1.
func (f *Field) Elements() []int64 {
	out := make([]int64, f.q)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func (f *Field) buildPrimeTables() {
	q := f.q
	f.add = make([]int64, q*q)
	f.mul = make([]int64, q*q)
	f.neg = make([]int64, q)
	f.inv = make([]int64, q)
	for a := int64(0); a < q; a++ {
		f.neg[a] = (q - a) % q
		if a != 0 {
			f.inv[a] = numtheory.InvMod(a, q)
		}
		for b := int64(0); b < q; b++ {
			f.add[a*q+b] = (a + b) % q
			f.mul[a*q+b] = (a * b) % q
		}
	}
}

// polynomial coefficient helpers: an element index encodes coefficients
// base p, least significant first.
func decode(idx, p, m int64) []int64 {
	c := make([]int64, m)
	for i := int64(0); i < m; i++ {
		c[i] = idx % p
		idx /= p
	}
	return c
}

func encode(c []int64, p int64) int64 {
	var idx int64
	for i := len(c) - 1; i >= 0; i-- {
		idx = idx*p + c[i]
	}
	return idx
}

func (f *Field) buildExtensionTables(irred []int64) {
	p, m, q := f.p, f.m, f.q
	f.add = make([]int64, q*q)
	f.mul = make([]int64, q*q)
	f.neg = make([]int64, q)
	f.inv = make([]int64, q)

	for a := int64(0); a < q; a++ {
		ca := decode(a, p, m)
		nc := make([]int64, m)
		for i := range ca {
			nc[i] = (p - ca[i]) % p
		}
		f.neg[a] = encode(nc, p)
		for b := int64(0); b < q; b++ {
			cb := decode(b, p, m)
			sum := make([]int64, m)
			for i := range sum {
				sum[i] = (ca[i] + cb[i]) % p
			}
			f.add[a*q+b] = encode(sum, p)
			f.mul[a*q+b] = encode(polyMulMod(ca, cb, irred, p), p)
		}
	}
	// Inverses by brute force over the multiplication table (q is small).
	for a := int64(1); a < q; a++ {
		found := false
		for b := int64(1); b < q; b++ {
			if f.mul[a*q+b] == 1 {
				f.inv[a] = b
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("gf: element %d of GF(%d) has no inverse; irreducible polynomial wrong", a, q))
		}
	}
}

// polyMulMod multiplies polynomials ca and cb over F_p and reduces modulo
// the monic irreducible polynomial irred (degree m, coefficients
// including the leading 1, length m+1).
func polyMulMod(ca, cb, irred []int64, p int64) []int64 {
	m := int64(len(ca))
	prod := make([]int64, 2*m-1)
	for i, x := range ca {
		if x == 0 {
			continue
		}
		for j, y := range cb {
			prod[i+j] = (prod[i+j] + x*y) % p
		}
	}
	// Reduce: x^m ≡ -(irred[0] + irred[1] x + ... + irred[m-1] x^(m-1)).
	for d := int64(len(prod)) - 1; d >= m; d-- {
		c := prod[d]
		if c == 0 {
			continue
		}
		prod[d] = 0
		for i := int64(0); i < m; i++ {
			prod[d-m+i] = ((prod[d-m+i]-c*irred[i])%p + p*p) % p
		}
	}
	return prod[:m]
}

// findIrreducible returns the lexicographically first monic irreducible
// polynomial of degree m over F_p, as coefficients c[0..m] with c[m]=1.
func findIrreducible(p, m int64) ([]int64, error) {
	total := int64(1)
	for i := int64(0); i < m; i++ {
		total *= p
	}
	for idx := int64(0); idx < total; idx++ {
		c := decode(idx, p, m)
		poly := append(append([]int64{}, c...), 1)
		if polyIrreducible(poly, p) {
			return poly, nil
		}
	}
	return nil, fmt.Errorf("gf: no irreducible polynomial of degree %d over F_%d", m, p)
}

// polyIrreducible tests irreducibility of a monic polynomial over F_p by
// trial division against all monic polynomials of degree <= deg/2.
func polyIrreducible(poly []int64, p int64) bool {
	deg := int64(len(poly) - 1)
	if deg == 1 {
		return true
	}
	// A polynomial with a root in F_p is reducible.
	for a := int64(0); a < p; a++ {
		var v, pw int64 = 0, 1
		for _, c := range poly {
			v = (v + c*pw) % p
			pw = (pw * a) % p
		}
		if v == 0 {
			return false
		}
	}
	for d := int64(2); d <= deg/2; d++ {
		count := int64(1)
		for i := int64(0); i < d; i++ {
			count *= p
		}
		for idx := int64(0); idx < count; idx++ {
			div := append(decode(idx, p, d), 1)
			if polyDivides(div, poly, p) {
				return false
			}
		}
	}
	return true
}

// polyDivides reports whether monic polynomial d divides monic polynomial n over F_p.
func polyDivides(d, n []int64, p int64) bool {
	rem := append([]int64{}, n...)
	dd := len(d) - 1
	for len(rem) >= len(d) {
		lead := rem[len(rem)-1]
		if lead != 0 {
			shift := len(rem) - 1 - dd
			for i := 0; i <= dd; i++ {
				rem[shift+i] = ((rem[shift+i]-lead*d[i])%p + p*p) % p
			}
		}
		rem = rem[:len(rem)-1]
	}
	for _, c := range rem {
		if c != 0 {
			return false
		}
	}
	return true
}

func (f *Field) findPrimitive() error {
	n := f.q - 1
	// Factor n to test element orders.
	factors := distinctPrimeFactors(n)
	for g := int64(1); g < f.q; g++ {
		ok := true
		for _, pf := range factors {
			if f.Pow(g, n/pf) == 1 {
				ok = false
				break
			}
		}
		if ok {
			f.prim = g
			f.expTb = make([]int64, n)
			f.logTb = make([]int64, f.q)
			f.logTb[0] = -1
			x := int64(1)
			for i := int64(0); i < n; i++ {
				f.expTb[i] = x
				f.logTb[x] = i
				x = f.Mul(x, g)
			}
			return nil
		}
	}
	return fmt.Errorf("gf: no primitive element in GF(%d)", f.q)
}

func distinctPrimeFactors(n int64) []int64 {
	var out []int64
	for p := int64(2); p*p <= n; p++ {
		if n%p == 0 {
			out = append(out, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// primePower returns (p, m, true) if q = p^m for a prime p and m >= 1.
func primePower(q int64) (p, m int64, ok bool) {
	if q < 2 {
		return 0, 0, false
	}
	for p = 2; p*p <= q; p++ {
		if q%p == 0 {
			m = 0
			n := q
			for n%p == 0 {
				n /= p
				m++
			}
			if n != 1 {
				return 0, 0, false
			}
			return p, m, true
		}
	}
	return q, 1, true // q itself prime
}

// PrimePower reports the (p, m) decomposition of a prime power, with
// ok=false when q is not a prime power.
func PrimePower(q int64) (p, m int64, ok bool) { return primePower(q) }

// Package spectral computes the eigenvalue quantities at the heart of
// the SpectralFly paper (§II): the second-largest adjacency eigenvalue
// λ₂, the extreme eigenvalue λ(G) of Definition 1, the Ramanujan test
// λ(G) ≤ 2√(k−1), the normalized Laplacian spectral gap µ₁ = (k−λ₂)/k
// used in Table I, and the Fiedler lower bound on bisection bandwidth
// BW ≥ µ₁·k·n/4 used in Figure 4.
//
// The workhorse is a Lanczos iteration with full reorthogonalization and
// optional deflation of known eigenvectors (for connected k-regular
// graphs the top eigenpair (k, 1) is known exactly, so λ₂ is the top
// Ritz value on 1⊥). Small instances fall back to a dense cyclic Jacobi
// solver, which also serves as the cross-validation oracle in tests.
package spectral

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// denseCutoff is the order below which dense Jacobi is used directly.
const denseCutoff = 220

// MulFunc applies a symmetric linear operator: dst = A·src.
type MulFunc func(dst, src []float64)

// Options configures the Lanczos iteration.
type Options struct {
	// Iters caps the Krylov dimension. 0 means an automatic choice.
	Iters int
	// Seed for the random starting vector.
	Seed int64
}

func (o Options) iters(n int) int {
	it := o.Iters
	if it == 0 {
		it = 180
	}
	if it > n {
		it = n
	}
	return it
}

// Lanczos returns Ritz values (sorted ascending) of the symmetric
// operator mul of dimension n, with the Krylov space kept orthogonal to
// the optional deflation vectors. The extreme Ritz values converge to
// the extreme eigenvalues of the operator restricted to the orthogonal
// complement of the deflation set.
func Lanczos(mul MulFunc, n int, deflate [][]float64, opts Options) []float64 {
	if n == 0 {
		return nil
	}
	m := opts.iters(n - len(deflate))
	if m <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	basis := make([][]float64, 0, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m) // beta[j] links v_j and v_{j+1}

	v := randomUnit(rng, n, deflate, basis)
	if v == nil {
		return nil
	}
	w := make([]float64, n)
	for j := 0; j < m; j++ {
		basis = append(basis, v)
		mul(w, v)
		a := dot(w, v)
		alpha = append(alpha, a)
		// w -= a·v_j + β_{j-1}·v_{j-1}; then full reorthogonalization.
		axpy(w, -a, v)
		if j > 0 {
			axpy(w, -beta[j-1], basis[j-1])
		}
		orthogonalize(w, deflate)
		orthogonalize(w, basis)
		orthogonalize(w, basis) // second pass for stability
		b := norm(w)
		if j == m-1 {
			break
		}
		if b < 1e-12 {
			// Invariant subspace found; restart with a fresh direction.
			nv := randomUnit(rng, n, deflate, basis)
			if nv == nil {
				break
			}
			beta = append(beta, 0)
			v = nv
			continue
		}
		beta = append(beta, b)
		nv := make([]float64, n)
		for i := range nv {
			nv[i] = w[i] / b
		}
		v = nv
	}
	d := append([]float64(nil), alpha...)
	e := make([]float64, len(d))
	copy(e[1:], beta) // e[i] couples d[i-1], d[i]
	TridiagEigen(d, e)
	return d
}

func randomUnit(rng *rand.Rand, n int, sets ...[][]float64) []float64 {
	for attempt := 0; attempt < 8; attempt++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for _, set := range sets {
			orthogonalize(v, set)
		}
		if b := norm(v); b > 1e-9 {
			for i := range v {
				v[i] /= b
			}
			return v
		}
	}
	return nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(y []float64, a float64, x []float64) {
	for i := range y {
		y[i] += a * x[i]
	}
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func orthogonalize(w []float64, basis [][]float64) {
	for _, u := range basis {
		axpy(w, -dot(w, u), u)
	}
}

// TridiagEigen overwrites d with the eigenvalues (sorted ascending) of
// the symmetric tridiagonal matrix with diagonal d and subdiagonal
// e[1:] (e[0] is ignored). It implements the implicit QL algorithm.
func TridiagEigen(d, e []float64) {
	n := len(d)
	if n == 0 {
		return
	}
	e = append(e[1:], 0)
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter >= 60 {
				panic("spectral: tridiagonal QL failed to converge")
			}
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	sortFloats(d)
}

func sortFloats(d []float64) {
	// Insertion sort: Ritz value vectors are short (≤ a few hundred).
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

// JacobiEigen returns the eigenvalues (ascending) of the dense symmetric
// matrix a (which it destroys) using the cyclic Jacobi method.
func JacobiEigen(a [][]float64) []float64 {
	n := len(a)
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(a[p][q]) < 1e-18 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p] = c*akp - s*akq
					a[k][q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k] = c*apk - s*aqk
					a[q][k] = s*apk + c*aqk
				}
			}
		}
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = a[i][i]
	}
	sortFloats(d)
	return d
}

// AdjacencyDense returns the dense adjacency matrix of g.
func AdjacencyDense(g *graph.Graph) [][]float64 {
	n := g.N()
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			a[u][v] = 1
		}
	}
	return a
}

// Spectrum summarizes the adjacency eigenvalues a topology analysis
// needs: the two largest and the smallest.
type Spectrum struct {
	Max        float64 // λ₁ (= k for connected k-regular graphs)
	SecondMax  float64 // λ₂
	Min        float64 // λ_n
	Bipartite  bool
	Regular    bool
	Degree     int // k when Regular
	NumVert    int
	exactDense bool
}

// Analyze computes the adjacency spectrum summary of g. Connected
// k-regular graphs get the exact top pair deflated (λ₁ = k); everything
// else relies on the raw Lanczos extremes. Small graphs are solved
// densely and exactly.
func Analyze(g *graph.Graph, opts Options) Spectrum {
	n := g.N()
	k, regular := g.Regularity()
	sp := Spectrum{Bipartite: g.IsBipartite(), Regular: regular, Degree: k, NumVert: n}
	if n == 0 {
		return sp
	}
	if n <= denseCutoff {
		ev := JacobiEigen(AdjacencyDense(g))
		sp.Max = ev[n-1]
		sp.Min = ev[0]
		if n >= 2 {
			sp.SecondMax = ev[n-2]
		}
		sp.exactDense = true
		return sp
	}
	if regular && g.IsConnected() {
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1 / math.Sqrt(float64(n))
		}
		rv := Lanczos(g.MulVec, n, [][]float64{ones}, opts)
		sp.Max = float64(k)
		sp.SecondMax = rv[len(rv)-1]
		sp.Min = rv[0]
		if sp.Bipartite {
			sp.Min = -float64(k)
		}
		return sp
	}
	rv := Lanczos(g.MulVec, n, nil, opts)
	sp.Max = rv[len(rv)-1]
	sp.Min = rv[0]
	if len(rv) >= 2 {
		sp.SecondMax = rv[len(rv)-2]
	}
	return sp
}

// Metrics are the structural properties reported in Table I, plus the
// Ramanujan and Cheeger diagnostics of §II.
type Metrics struct {
	Routers     int
	Radix       int // 0 when the graph is irregular (e.g. after failures)
	Regular     bool
	Links       int
	Connected   bool
	Diameter    int // largest finite distance (over reachable pairs if !Connected)
	AvgDistance float64
	Girth       int
	Bipartite   bool
	// Spectral quantities are populated only for regular graphs.
	LambdaG        float64 // λ(G): largest |eigenvalue| ≠ ±k
	RamanujanBound float64 // 2√(k-1)
	Ramanujan      bool    // λ(G) ≤ 2√(k-1)
	Mu1            float64 // (k - λ(G))/k, Table I's spectral gap column
	// CheegerLower and CheegerUpper bracket the edge expansion h(G);
	// see Spectrum.CheegerBounds.
	CheegerLower, CheegerUpper float64
}

// Profile computes the full structural profile of g: all-pairs
// distances, girth, and, on regular graphs of positive degree only,
// one seeded eigen-solve for the Ramanujan, µ1 and Cheeger fields.
// Irregular graphs (e.g. after failures) leave those fields zero.
func Profile(g *graph.Graph, seed int64) Metrics {
	k, regular := g.Regularity()
	st := g.AllPairsStats()
	m := Metrics{
		Routers:     g.N(),
		Regular:     regular,
		Links:       g.M(),
		Connected:   st.Connected,
		Diameter:    st.Diameter,
		AvgDistance: st.AvgDist,
		Girth:       g.Girth(),
		Bipartite:   g.IsBipartite(),
	}
	if regular && k > 0 {
		sp := Analyze(g, Options{Seed: seed})
		m.Radix = k
		m.LambdaG = sp.LambdaG()
		m.RamanujanBound = RamanujanBound(k)
		m.Ramanujan = sp.IsRamanujan(1e-8)
		m.Mu1 = sp.Mu1()
		m.CheegerLower, m.CheegerUpper = sp.CheegerBounds()
	}
	return m
}

// LambdaG returns λ(G) of Definition 1: the largest-magnitude adjacency
// eigenvalue not equal to ±k. The graph must be k-regular.
func (s Spectrum) LambdaG() float64 {
	if !s.Regular {
		panic("spectral: LambdaG requires a regular graph")
	}
	k := float64(s.Degree)
	lam := math.Abs(s.SecondMax)
	// λmin participates unless it equals -k (the bipartite bottom
	// eigenvalue, which Definition 1 excludes).
	if math.Abs(s.Min+k) > 1e-6 {
		if m := math.Abs(s.Min); m > lam {
			lam = m
		}
	}
	return lam
}

// RamanujanBound returns 2√(k−1).
func RamanujanBound(k int) float64 { return 2 * math.Sqrt(float64(k-1)) }

// IsRamanujan reports whether λ(G) ≤ 2√(k−1) within tol.
func (s Spectrum) IsRamanujan(tol float64) bool {
	return s.LambdaG() <= RamanujanBound(s.Degree)+tol
}

// Mu1 returns the normalized spectral gap µ₁ = (k−λ(G))/k reported in
// Table I, where λ(G) is the Definition 1 eigenvalue (largest magnitude
// excluding ±k). This matches the paper's numbers exactly (e.g. SF(17):
// λ(G) = 9 ⇒ µ₁ = 0.64). The graph must be regular with positive degree.
func (s Spectrum) Mu1() float64 {
	if !s.Regular || s.Degree == 0 {
		panic(fmt.Sprintf("spectral: Mu1 requires regular positive degree (regular=%v k=%d)", s.Regular, s.Degree))
	}
	return (float64(s.Degree) - s.LambdaG()) / float64(s.Degree)
}

// FiedlerBisectionLowerBound returns the spectral lower bound on
// bisection bandwidth used in §IV-d, BW(G) ≥ µ₁·k·n/4, from one seeded
// eigen-solve. The bound is stated for k-regular graphs; an irregular
// graph (or one with no links) reports 0.
func FiedlerBisectionLowerBound(g *graph.Graph, seed int64) float64 {
	k, regular := g.Regularity()
	if !regular || k == 0 {
		return 0
	}
	mu1 := Analyze(g, Options{Seed: seed}).Mu1()
	return mu1 * float64(k) * float64(g.N()) / 4
}

// CheegerBounds brackets the edge expansion (conductance-style
// isoperimetric constant)
//
//	h(G) = min_{|S| ≤ n/2} e(S, S̄)/|S|
//
// of a connected k-regular graph via the discrete Cheeger inequality:
//
//	(k − λ₂)/2  ≤  h(G)  ≤  √(2k(k − λ₂))
//
// §II frames the whole SpectralFly argument through exactly these
// expansion bounds (Tanner's lower bound and the Alon–Milman upper
// bound family): maximizing the spectral gap pins h(G) into a high,
// narrow window.
func (s Spectrum) CheegerBounds() (lower, upper float64) {
	if !s.Regular || s.Degree == 0 {
		panic("spectral: CheegerBounds requires a regular graph")
	}
	gap := float64(s.Degree) - s.SecondMax
	if gap < 0 {
		gap = 0
	}
	return gap / 2, math.Sqrt(2 * float64(s.Degree) * gap)
}

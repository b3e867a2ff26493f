package spectral

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

func hypercube(d int) *graph.Graph {
	n := 1 << d
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			b.AddEdge(v, v^(1<<bit))
		}
	}
	return b.Build()
}

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestTridiagEigenDiagonal(t *testing.T) {
	d := []float64{3, 1, 2}
	e := []float64{0, 0, 0}
	TridiagEigen(d, e)
	want := []float64{1, 2, 3}
	for i := range want {
		approx(t, d[i], want[i], 1e-12, "diagonal eigen")
	}
}

func TestTridiagEigen2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	d := []float64{2, 2}
	e := []float64{0, 1}
	TridiagEigen(d, e)
	approx(t, d[0], 1, 1e-12, "2x2 low")
	approx(t, d[1], 3, 1e-12, "2x2 high")
}

func TestTridiagEigenPathGraph(t *testing.T) {
	// Adjacency of path P_n is tridiagonal with zeros on the diagonal;
	// eigenvalues are 2cos(πj/(n+1)).
	n := 12
	d := make([]float64, n)
	e := make([]float64, n)
	for i := 1; i < n; i++ {
		e[i] = 1
	}
	TridiagEigen(d, e)
	for j := 0; j < n; j++ {
		want := 2 * math.Cos(math.Pi*float64(n-j)/float64(n+1))
		approx(t, d[j], want, 1e-10, "path eigenvalue")
	}
}

func TestJacobiMatchesTridiag(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 30
	d := make([]float64, n)
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = rng.NormFloat64()
		if i > 0 {
			e[i] = rng.NormFloat64()
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = d[i]
	}
	for i := 1; i < n; i++ {
		a[i][i-1], a[i-1][i] = e[i], e[i]
	}
	jac := JacobiEigen(a)
	TridiagEigen(d, e)
	for i := 0; i < n; i++ {
		approx(t, d[i], jac[i], 1e-8, "QL vs Jacobi")
	}
}

func TestAnalyzeCompleteGraph(t *testing.T) {
	// K_n: eigenvalues n-1 (once) and -1 (n-1 times).
	sp := Analyze(complete(10), Options{})
	approx(t, sp.Max, 9, 1e-9, "K10 max")
	approx(t, sp.SecondMax, -1, 1e-9, "K10 second")
	approx(t, sp.Min, -1, 1e-9, "K10 min")
	if !sp.Regular || sp.Degree != 9 {
		t.Error("K10 regularity")
	}
}

func TestAnalyzeCycle(t *testing.T) {
	// C_n eigenvalues: 2cos(2πj/n); for n=12 second largest is 2cos(π/6)=√3.
	sp := Analyze(ring(12), Options{})
	approx(t, sp.Max, 2, 1e-9, "C12 max")
	approx(t, sp.SecondMax, math.Sqrt(3), 1e-9, "C12 second")
	approx(t, sp.Min, -2, 1e-9, "C12 min")
	if !sp.Bipartite {
		t.Error("C12 is bipartite")
	}
}

func TestAnalyzeHypercubeLanczosPath(t *testing.T) {
	// Q9 has 512 vertices (> dense cutoff): eigenvalues d-2i; λ₂ = d-2.
	d := 9
	sp := Analyze(hypercube(d), Options{Seed: 11})
	approx(t, sp.Max, float64(d), 1e-9, "Q9 max")
	approx(t, sp.SecondMax, float64(d-2), 1e-6, "Q9 second largest")
	approx(t, sp.Min, -float64(d), 1e-6, "Q9 min")
	if !sp.Bipartite {
		t.Error("hypercube is bipartite")
	}
}

func TestLanczosMatchesDenseOnMediumGraph(t *testing.T) {
	// Random regular-ish graph of 300 vertices: compare Lanczos λ₂ with
	// dense Jacobi.
	rng := rand.New(rand.NewSource(5))
	n := 300
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
		b.AddEdge(v, (v+7)%n)
		b.AddEdge(v, rng.Intn(n))
	}
	g := b.Build()
	dense := JacobiEigen(AdjacencyDense(g))
	rv := Lanczos(g.MulVec, n, nil, Options{Seed: 3})
	approx(t, rv[len(rv)-1], dense[n-1], 1e-6, "λmax Lanczos vs dense")
	approx(t, rv[0], dense[0], 1e-6, "λmin Lanczos vs dense")
	approx(t, rv[len(rv)-2], dense[n-2], 1e-4, "λ₂ Lanczos vs dense")
}

func TestLambdaGPetersen(t *testing.T) {
	// Petersen graph spectrum: 3, 1 (×5), -2 (×4); λ(G) = 2; it is
	// Ramanujan: 2 ≤ 2√2.
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)
		b.AddEdge(5+i, 5+(i+2)%5)
		b.AddEdge(i, 5+i)
	}
	sp := Analyze(b.Build(), Options{})
	approx(t, sp.LambdaG(), 2, 1e-9, "Petersen λ(G)")
	if !sp.IsRamanujan(1e-9) {
		t.Error("Petersen is Ramanujan")
	}
	// µ1 uses λ(G) = max magnitude (= |-2| for Petersen), not λ₂ = 1.
	approx(t, sp.Mu1(), (3.0-2.0)/3.0, 1e-9, "Petersen µ1")
}

func TestLambdaGBipartiteExcludesMinusK(t *testing.T) {
	// K_{4,4}: eigenvalues ±4 and 0; λ(G)=0 since ±k excluded.
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := 4; j < 8; j++ {
			b.AddEdge(i, j)
		}
	}
	sp := Analyze(b.Build(), Options{})
	if !sp.Bipartite {
		t.Fatal("K44 is bipartite")
	}
	approx(t, sp.LambdaG(), 0, 1e-9, "K44 λ(G)")
}

func TestMu1CompleteGraph(t *testing.T) {
	// K_n: λ(G) = |-1| = 1, so µ1 = (n-2)/(n-1).
	sp := Analyze(complete(8), Options{})
	approx(t, sp.Mu1(), 6.0/7.0, 1e-9, "K8 µ1")
}

func TestRamanujanBound(t *testing.T) {
	approx(t, RamanujanBound(4), 2*math.Sqrt(3), 1e-12, "bound k=4")
	// C_n for large n is NOT a good expander but IS Ramanujan for k=2
	// (bound 2, spectrum within [-2,2]).
	sp := Analyze(ring(50), Options{})
	if !sp.IsRamanujan(1e-9) {
		t.Error("cycles are (trivially) Ramanujan for k=2")
	}
}

func TestNonRamanujanDetected(t *testing.T) {
	// The prism C_n × K_2 is 3-regular with λ₂ = 2cos(2π/n) + 1, which
	// exceeds the Ramanujan bound 2√2 once n ≥ 17. Use n = 24.
	n := 24
	b := graph.NewBuilder(2 * n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(n+i, n+(i+1)%n)
		b.AddEdge(i, n+i)
	}
	sp := Analyze(b.Build(), Options{})
	if sp.Degree != 3 || !sp.Regular {
		t.Fatalf("prism degree %d regular=%v", sp.Degree, sp.Regular)
	}
	approx(t, sp.SecondMax, 2*math.Cos(2*math.Pi/float64(n))+1, 1e-9, "prism λ₂")
	if sp.IsRamanujan(1e-9) {
		t.Errorf("C24×K2 must not be Ramanujan: λ(G)=%v bound=%v", sp.LambdaG(), RamanujanBound(3))
	}
}

func TestFiedlerBisectionLowerBound(t *testing.T) {
	// Q3: n=8, k=3, λ(G) = 1 (−3 is excluded), µ1 = 2/3, so
	// µ1·k·n/4 = 4 — exactly the cube's bisection width.
	approx(t, FiedlerBisectionLowerBound(hypercube(3), 1), 4, 1e-9, "Q3 Fiedler LB")
	// K8: µ1 = 6/7, so 6/7·7·8/4 = 12, half of K8's bisection width 16.
	approx(t, FiedlerBisectionLowerBound(complete(8), 1), 12, 1e-9, "K8 Fiedler LB")
	// The bound is stated for regular graphs: a path reports 0.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	if lb := FiedlerBisectionLowerBound(b.Build(), 1); lb != 0 {
		t.Errorf("irregular graph Fiedler LB %v, want 0", lb)
	}
}

func TestLanczosDeflation(t *testing.T) {
	// Deflating the top eigenvector of K_n leaves only the -1 eigenspace.
	n := 300
	g := complete(n)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1 / math.Sqrt(float64(n))
	}
	rv := Lanczos(g.MulVec, n, [][]float64{ones}, Options{Seed: 9, Iters: 40})
	for _, v := range rv {
		approx(t, v, -1, 1e-8, "deflated K_n Ritz value")
	}
}

func TestAnalyzeEmptyAndTiny(t *testing.T) {
	sp := Analyze(graph.NewBuilder(0).Build(), Options{})
	if sp.NumVert != 0 {
		t.Error("empty graph")
	}
	sp = Analyze(graph.NewBuilder(1).Build(), Options{})
	if sp.Max != 0 || sp.Min != 0 {
		t.Error("single vertex spectrum should be {0}")
	}
}

func TestSpectrumSymmetricForBipartite(t *testing.T) {
	// Bipartite spectra are symmetric: λmin = -λmax for connected regular.
	sp := Analyze(hypercube(5), Options{})
	approx(t, sp.Min, -sp.Max, 1e-9, "bipartite symmetry")
}

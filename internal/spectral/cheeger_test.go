package spectral

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestCheegerBoundsCompleteGraph(t *testing.T) {
	// K_n: λ₂ = -1, gap = n, h(G) = ⌈n/2⌉ edges per vertex... for K8,
	// h = e(S,S̄)/|S| minimized at |S| = 4: 4·4/4 = 4. Bounds: gap/2 =
	// 8/2 = 4 ≤ 4 ≤ √(2·7·8) = 10.58.
	sp := Analyze(complete(8), Options{})
	lo, hi := sp.CheegerBounds()
	trueH := 4.0
	if lo > trueH+1e-9 {
		t.Errorf("Cheeger lower %v exceeds true h %v", lo, trueH)
	}
	if hi < trueH-1e-9 {
		t.Errorf("Cheeger upper %v below true h %v", hi, trueH)
	}
}

func TestCheegerBoundsCycle(t *testing.T) {
	// C_n: h = 2/(n/2) = 4/n for even n. Verify bracketing for C12:
	// h = 2/6 = 1/3.
	sp := Analyze(ring(12), Options{})
	lo, hi := sp.CheegerBounds()
	trueH := 1.0 / 3.0
	if lo > trueH+1e-9 || hi < trueH-1e-9 {
		t.Errorf("C12 Cheeger bounds [%v, %v] miss %v", lo, hi, trueH)
	}
}

func TestCheegerBoundsBracketBisectionDerivedExpansion(t *testing.T) {
	// For any balanced bisection side S: e(S,S̄)/|S| ≥ h(G) ≥ lower
	// bound. Check on the hypercube: bisection cut 2^(d-1), |S|=2^(d-1)
	// → ratio 1; Cheeger lower = (d-(d-2))/2 = 1. Tight!
	sp := Analyze(hypercube(6), Options{})
	lo, hi := sp.CheegerBounds()
	if math.Abs(lo-1) > 1e-9 {
		t.Errorf("Q6 Cheeger lower %v want 1", lo)
	}
	if hi < 1 {
		t.Errorf("Q6 Cheeger upper %v below true h=1", hi)
	}
}

func TestCheegerPanicsOnIrregular(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	sp := Analyze(b.Build(), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sp.CheegerBounds()
}

package topo

import (
	"math"
	"testing"

	"repro/internal/spectral"
)

func TestBundleFlyParams(t *testing.T) {
	cases := []struct {
		p, s     int64
		vertices int64
		radix    int
	}{
		{13, 3, 234, 11},   // Table I class 1
		{37, 3, 666, 23},   // Table I class 2
		{97, 4, 3104, 54},  // Table I class 3 (δ=0 MMS)
		{137, 4, 4384, 74}, // Table I class 4
		{157, 5, 7850, 85}, // Table I class 5
		{9, 9, 1458, 17},   // §VI-B simulation topology (p=s=9)
	}
	for _, c := range cases {
		info, err := BundleFlyParams(c.p, c.s)
		if err != nil {
			t.Errorf("BundleFlyParams(%d,%d): %v", c.p, c.s, err)
			continue
		}
		if info.Vertices != c.vertices || info.Radix != c.radix {
			t.Errorf("BF(%d,%d): n=%d k=%d, want n=%d k=%d",
				c.p, c.s, info.Vertices, info.Radix, c.vertices, c.radix)
		}
	}
}

func TestBundleFlyParamsRejects(t *testing.T) {
	bad := [][2]int64{
		{7, 3},  // p ≡ 3 mod 4
		{12, 3}, // p not a prime power
		{13, 6}, // s ≡ 2 mod 4
		{13, 2}, // s too small
	}
	for _, c := range bad {
		if _, err := BundleFlyParams(c[0], c[1]); err == nil {
			t.Errorf("BundleFlyParams(%d,%d) should fail", c[0], c[1])
		}
	}
}

func TestBundleFlyTable1Class1(t *testing.T) {
	// Table I: BF(13,3) — 234 routers, radix 11, diam 3, dist 2.56,
	// girth 3, µ1 = 0.27.
	inst := MustBundleFly(13, 3)
	g := inst.G
	if g.N() != 234 {
		t.Fatalf("n=%d", g.N())
	}
	if k, ok := g.Regularity(); !ok || k != 11 {
		t.Fatalf("radix (%d,%v)", k, ok)
	}
	st := g.AllPairsStats()
	if !st.Connected || st.Diameter != 3 {
		t.Errorf("diameter %d want 3", st.Diameter)
	}
	// Identity matchings shift the distance profile slightly relative to
	// the paper's algebraic matchings; accept a small band around 2.56.
	if math.Abs(st.AvgDist-2.56) > 0.12 {
		t.Errorf("avg dist %.3f want ≈2.56", st.AvgDist)
	}
	if girth := g.Girth(); girth != 3 {
		t.Errorf("girth %d want 3", girth)
	}
	sp := spectral.Analyze(g, spectral.Options{Seed: 6})
	if mu := sp.Mu1(); math.Abs(mu-0.27) > 0.12 {
		t.Errorf("µ1 %.3f want ≈0.27", mu)
	}
}

func TestBundleFlyDelta0Component(t *testing.T) {
	// BF(97,4) needs the δ=0 MMS(4); verify the small pieces rather than
	// the full 3104-vertex build in the unit suite.
	info, err := BundleFlyParams(97, 4)
	if err != nil {
		t.Fatal(err)
	}
	if info.Radix != 54 || info.Vertices != 3104 {
		t.Fatalf("BF(97,4) shape: %+v", info)
	}
	g, err := MMS(4)
	if err != nil {
		t.Fatal(err)
	}
	if st := g.AllPairsStats(); st.Diameter != 2 {
		t.Errorf("MMS(4) diameter %d want 2", st.Diameter)
	}
}

func TestBundleFlySimulationInstance(t *testing.T) {
	// BF(9,9) from §VI-B: 1458 routers, radix 17, diameter ≤ 3.
	inst := MustBundleFly(9, 9)
	g := inst.G
	if g.N() != 1458 {
		t.Fatalf("n=%d want 1458", g.N())
	}
	if k, _ := g.Regularity(); k != 17 {
		t.Fatalf("radix %d want 17", k)
	}
	st := g.AllPairsStats()
	if !st.Connected || st.Diameter > 3 {
		t.Errorf("diameter %d want ≤3", st.Diameter)
	}
}

func TestBundleFlyStarProductStructure(t *testing.T) {
	// Every bundle must induce a Paley(p) subgraph, and inter-bundle
	// edges must form perfect matchings (each router has exactly one
	// link into each adjacent bundle).
	inst := MustBundleFly(13, 3)
	g := inst.G
	p := 13
	// Bundle 0 induces Paley(13): each of its 13 vertices has 6
	// neighbors inside the bundle.
	for u := 0; u < p; u++ {
		inside := 0
		for _, v := range g.Neighbors(u) {
			if int(v) < p {
				inside++
			}
		}
		if inside != 6 {
			t.Errorf("vertex %d has %d neighbors in bundle 0, want 6", u, inside)
		}
	}
	// Each vertex of bundle 0 has exactly one neighbor per adjacent
	// bundle (perfect matchings).
	for u := 0; u < p; u++ {
		perBundle := map[int]int{}
		for _, v := range g.Neighbors(u) {
			if int(v) >= p {
				perBundle[int(v)/p]++
			}
		}
		for bundle, cnt := range perBundle {
			if cnt != 1 {
				t.Fatalf("vertex %d has %d links into bundle %d, want 1", u, cnt, bundle)
			}
		}
		if len(perBundle) != 5 { // MMS(3) degree = (3·3+1)/2 = 5
			t.Fatalf("vertex %d touches %d bundles, want 5", u, len(perBundle))
		}
	}
}

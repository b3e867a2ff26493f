package topo

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numtheory"
	"repro/internal/pgl"
	"repro/internal/spectral"
)

func TestLPSParamsValidation(t *testing.T) {
	bad := [][2]int64{
		{3, 3}, // not distinct
		{4, 7}, // p not prime
		{3, 9}, // q not prime
		{2, 7}, // p even
	}
	for _, c := range bad {
		if _, err := LPSParams(c[0], c[1]); err == nil {
			t.Errorf("LPSParams(%d,%d) should fail", c[0], c[1])
		}
	}
	// q ≤ 2√p is allowed (the paper's Table II uses LPS(19,7)) but the
	// Ramanujan guarantee is dropped.
	for _, c := range [][2]int64{{13, 5}, {19, 7}} {
		info, err := LPSParams(c[0], c[1])
		if err != nil {
			t.Errorf("LPSParams(%d,%d) should construct: %v", c[0], c[1], err)
			continue
		}
		if info.Ramanujan {
			t.Errorf("LPS(%d,%d) must not claim the Ramanujan guarantee", c[0], c[1])
		}
	}
	if info, err := LPSParams(11, 7); err != nil || !info.Ramanujan {
		t.Errorf("LPS(11,7) should carry the Ramanujan guarantee (err=%v)", err)
	}
}

func TestLPSParamsGroupSelection(t *testing.T) {
	cases := []struct {
		p, q     int64
		kind     pgl.Kind
		vertices int64
	}{
		{3, 5, pgl.PGL, 120},    // (3|5) = -1; smallest LPS graph (§IV-a)
		{11, 7, pgl.PSL, 168},   // Table I class 1
		{23, 11, pgl.PSL, 660},  // Table I class 2
		{53, 17, pgl.PSL, 2448}, // Table I class 3
		{71, 17, pgl.PGL, 4896}, // Table I class 4
		{89, 19, pgl.PGL, 6840}, // Table I class 5
		{23, 13, pgl.PSL, 1092}, // §VI-B simulation topology
		{29, 13, pgl.PSL, 1092}, // Table II: LPS(29,13) has 1092 routers
		{19, 7, pgl.PGL, 336},   // Table II: LPS(19,7)
	}
	for _, c := range cases {
		info, err := LPSParams(c.p, c.q)
		if err != nil {
			t.Errorf("LPSParams(%d,%d): %v", c.p, c.q, err)
			continue
		}
		if info.Kind != c.kind || info.Vertices != c.vertices {
			t.Errorf("LPS(%d,%d): kind=%v n=%d, want %v n=%d",
				c.p, c.q, info.Kind, info.Vertices, c.kind, c.vertices)
		}
		if info.Radix != int(c.p+1) {
			t.Errorf("LPS(%d,%d): radix %d want %d", c.p, c.q, info.Radix, c.p+1)
		}
		if info.Bipartite != (c.kind == pgl.PGL) {
			t.Errorf("LPS(%d,%d): bipartite flag wrong", c.p, c.q)
		}
	}
}

func TestLPSGeneratorMatricesDistinct(t *testing.T) {
	for _, c := range [][2]int64{{3, 5}, {5, 13}, {11, 7}, {23, 11}} {
		mats := generatorMatrices(c[0], c[1])
		if int64(len(mats)) != c[0]+1 {
			t.Errorf("LPS(%d,%d): %d generators, want %d", c[0], c[1], len(mats), c[0]+1)
		}
		seen := map[int64]bool{}
		for _, m := range mats {
			k := m.Pack(c[1])
			if seen[k] {
				t.Errorf("LPS(%d,%d): duplicate generator %v", c[0], c[1], m)
			}
			seen[k] = true
			// Canonicalization rescales by λ (det by λ²), so the invariant
			// is the square class of det·p⁻¹, not det = p itself.
			det := m.Det(c[1])
			pInv := numtheory.InvMod(c[0]%c[1], c[1])
			if numtheory.Legendre(numtheory.MulMod(det, pInv, c[1]), c[1]) != 1 {
				t.Errorf("LPS(%d,%d): generator det %d not in square class of p", c[0], c[1], det)
			}
		}
	}
}

func TestLPSGeneratorSetSymmetric(t *testing.T) {
	// The generator set must be closed under projective inversion so the
	// Cayley graph is undirected.
	for _, c := range [][2]int64{{3, 5}, {11, 7}, {13, 17}} {
		q := c[1]
		mats := generatorMatrices(c[0], q)
		set := map[int64]bool{}
		for _, m := range mats {
			set[m.Pack(q)] = true
		}
		for _, m := range mats {
			inv := m.Adj(q).Canon(q)
			if !set[inv.Pack(q)] {
				t.Errorf("LPS(%d,%d): inverse of generator %v missing", c[0], q, m)
			}
		}
	}
}

func TestLPSSmallestGraph(t *testing.T) {
	// LPS(3,5): 120 vertices, 4-regular, bipartite, connected, Ramanujan.
	inst := MustLPS(3, 5)
	g := inst.G
	if g.N() != 120 {
		t.Fatalf("LPS(3,5) has %d vertices", g.N())
	}
	if k, ok := g.Regularity(); !ok || k != 4 {
		t.Fatalf("LPS(3,5) regularity (%d,%v)", k, ok)
	}
	if !g.IsConnected() {
		t.Fatal("LPS(3,5) disconnected")
	}
	if !g.IsBipartite() {
		t.Fatal("LPS(3,5) should be bipartite (PGL case)")
	}
	sp := spectral.Analyze(g, spectral.Options{Seed: 1})
	if !sp.IsRamanujan(1e-8) {
		t.Fatalf("LPS(3,5) not Ramanujan: λ=%v bound=%v", sp.LambdaG(), spectral.RamanujanBound(4))
	}
}

func TestLPSTable1Class1(t *testing.T) {
	// Table I row: LPS(11,7) — 168 routers, radix 12, diameter 3,
	// distance 2.39, girth 3, µ1 = 0.50.
	inst := MustLPS(11, 7)
	g := inst.G
	if k, ok := g.Regularity(); !ok || k != 12 {
		t.Fatalf("radix (%d,%v)", k, ok)
	}
	st := g.AllPairsStats()
	if !st.Connected || st.Diameter != 3 {
		t.Errorf("diameter %d want 3", st.Diameter)
	}
	if math.Abs(st.AvgDist-2.39) > 0.01 {
		t.Errorf("avg dist %.3f want 2.39", st.AvgDist)
	}
	if girth := g.Girth(); girth != 3 {
		t.Errorf("girth %d want 3", girth)
	}
	sp := spectral.Analyze(g, spectral.Options{Seed: 2})
	if mu := sp.Mu1(); math.Abs(mu-0.50) > 0.01 {
		t.Errorf("µ1 %.3f want 0.50", mu)
	}
	if !sp.IsRamanujan(1e-8) {
		t.Error("LPS(11,7) must be Ramanujan")
	}
}

func TestLPSVertexTransitiveLocalStructure(t *testing.T) {
	// Cayley graphs are vertex-transitive: every vertex sees the same
	// sorted sequence of 2-hop neighborhood sizes. Spot-check a few.
	inst := MustLPS(11, 7)
	g := inst.G
	count2hop := func(v int) int {
		seen := map[int32]bool{}
		for _, u := range g.Neighbors(v) {
			for _, w := range g.Neighbors(int(u)) {
				seen[w] = true
			}
		}
		return len(seen)
	}
	want := count2hop(0)
	for _, v := range []int{1, 17, 50, 99, 167} {
		if got := count2hop(v); got != want {
			t.Errorf("2-hop size differs at %d: %d vs %d", v, got, want)
		}
	}
}

func TestLPSFeasible(t *testing.T) {
	feas := LPSFeasible(50)
	if len(feas) == 0 {
		t.Fatal("no feasible LPS instances below 50")
	}
	seen35 := false
	for _, f := range feas {
		if f.Name == "LPS(3,5)" {
			seen35 = true
			if f.Vertices != 120 || f.Radix != 4 {
				t.Errorf("LPS(3,5) feasibility wrong: %+v", f)
			}
		}
		if f.Vertices < 24 {
			t.Errorf("implausibly small LPS instance %+v", f)
		}
	}
	if !seen35 {
		t.Error("LPS(3,5) missing from feasible set")
	}
	// The paper (§IV-a): smallest possible LPS graph has 120 vertices.
	min := feas[0].Vertices
	for _, f := range feas {
		if f.Vertices < min {
			min = f.Vertices
		}
	}
	if min != 120 {
		t.Errorf("smallest feasible LPS has %d vertices, want 120", min)
	}
}

func TestLPSPaperExampleNeighborhood(t *testing.T) {
	// Figure 2 shows the neighborhood of a vertex of LPS(3,5): each
	// vertex has exactly 4 neighbors reached by the 4 generators.
	inst := MustLPS(3, 5)
	v0 := 0
	if d := inst.G.Degree(v0); d != 4 {
		t.Fatalf("degree %d want 4", d)
	}
}

func TestBuildSmallestRamanujan(t *testing.T) {
	inst, err := LPS(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := LPSParams(3, 5)
	if info.Kind != pgl.PGL || info.Vertices != 120 || !info.Bipartite {
		t.Fatalf("info %+v", info)
	}
	sp := spectral.Analyze(inst.G, spectral.Options{Seed: 1})
	if !sp.IsRamanujan(1e-8) {
		t.Fatalf("LPS(3,5) not Ramanujan: λ=%v", sp.LambdaG())
	}
}

func TestBuildPSLCase(t *testing.T) {
	inst, err := LPS(13, 17)
	if err != nil {
		t.Fatal(err)
	}
	g := inst.G
	info, _ := LPSParams(13, 17)
	if info.Kind != pgl.PSL {
		t.Fatalf("(13|17) is a square; expected PSL, got %v", info.Kind)
	}
	if info.Vertices != (17*17*17-17)/2 || g.N() != int(info.Vertices) {
		t.Fatalf("vertex count %d", g.N())
	}
	if info.Bipartite || g.IsBipartite() {
		t.Error("PSL-case LPS graphs are non-bipartite")
	}
	sp := spectral.Analyze(g, spectral.Options{Seed: 2})
	if !sp.IsRamanujan(1e-6) {
		t.Errorf("LPS(13,17) must be Ramanujan: λ=%v bound=%v",
			sp.LambdaG(), spectral.RamanujanBound(14))
	}
}

func TestRamanujanPropertyAcrossInstances(t *testing.T) {
	// Property: every in-regime instance passes the spectral test.
	cases := [][2]int64{{3, 7}, {3, 11}, {5, 7}, {5, 11}, {7, 13}, {11, 7}, {13, 7}}
	for _, c := range cases {
		info, err := LPSParams(c[0], c[1])
		if err != nil {
			t.Fatalf("LPSParams(%v): %v", c, err)
		}
		if !info.Ramanujan {
			continue
		}
		inst, err := LPS(c[0], c[1])
		if err != nil {
			t.Errorf("LPS(%v): %v", c, err)
			continue
		}
		g := inst.G
		sp := spectral.Analyze(g, spectral.Options{Seed: 3})
		if !sp.IsRamanujan(1e-6) {
			t.Errorf("LPS(%d,%d): λ(G)=%.4f exceeds bound %.4f",
				c[0], c[1], sp.LambdaG(), spectral.RamanujanBound(int(c[0]+1)))
		}
		if info.Bipartite != g.IsBipartite() {
			t.Errorf("LPS(%d,%d): bipartite flag %v but graph says %v",
				c[0], c[1], info.Bipartite, g.IsBipartite())
		}
	}
}

func TestGeneratorDeterminant(t *testing.T) {
	// Pre-canonicalization determinant is p mod q: verify via the raw
	// matrix (recompute without Canon).
	p, q := int64(11), int64(7)
	x, y := numtheory.SolveXY(q)
	for _, s := range numtheory.LPSGenerators(p) {
		m := pgl.NewMat(
			s.A0+s.A1*x+s.A3*y,
			-s.A1*y+s.A2+s.A3*x,
			-s.A1*y-s.A2+s.A3*x,
			s.A0-s.A1*x-s.A3*y,
			q,
		)
		if m.Det(q) != p%q {
			t.Fatalf("raw generator det %d want %d", m.Det(q), p%q)
		}
	}
}

func TestNondegenerate(t *testing.T) {
	if !nondegenerate(11, 7) {
		t.Error("LPS(11,7) generators must be nondegenerate")
	}
	if !nondegenerate(3, 5) {
		t.Error("LPS(3,5) generators must be nondegenerate")
	}
}

func TestFeasibleMatchesParams(t *testing.T) {
	f := func(idx uint8) bool {
		points := LPSFeasible(60)
		if len(points) == 0 {
			return false
		}
		pt := points[int(idx)%len(points)]
		var p, q int64
		if _, err := fmt.Sscanf(pt.Name, "LPS(%d,%d)", &p, &q); err != nil {
			return false
		}
		info, err := LPSParams(p, q)
		if err != nil {
			return false
		}
		return info.Radix == pt.Radix && info.Vertices == pt.Vertices && info.Ramanujan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestVertexCountFormula(t *testing.T) {
	// n = (3 - (p|q))(q³-q)/4 from §IV.
	for _, c := range [][2]int64{{11, 7}, {23, 11}, {3, 5}, {19, 7}} {
		info, err := LPSParams(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		leg := int64(numtheory.Legendre(c[0], c[1]))
		want := (3 - leg) * (c[1]*c[1]*c[1] - c[1]) / 4
		if info.Vertices != want {
			t.Errorf("LPS(%d,%d): n=%d formula=%d", c[0], c[1], info.Vertices, want)
		}
	}
}

func TestCayleyAutomorphismVertexTransitivity(t *testing.T) {
	// Left multiplication by any group element g (u ↦ g·u) is a graph
	// automorphism of a Cayley graph: edges {u, u·s} map to
	// {g·u, (g·u)·s}. Verify directly for LPS(3,5): pick several g and
	// check edge preservation — this certifies vertex-transitivity,
	// which the paper leans on for routing simplifications (§III).
	p, q := int64(3), int64(5)
	inst, err := LPS(p, q)
	if err != nil {
		t.Fatal(err)
	}
	grf := inst.G
	info, _ := LPSParams(p, q)
	group, err := pgl.NewGroup(q, info.Kind)
	if err != nil {
		t.Fatal(err)
	}
	for _, gi := range []int{1, 7, 42, 99} {
		gm := group.Element(gi)
		perm := make([]int, group.Order())
		for u := 0; u < group.Order(); u++ {
			perm[u] = group.IndexOf(gm.Mul(group.Element(u), q))
			if perm[u] < 0 {
				t.Fatalf("left translation left the group at %d", u)
			}
		}
		for _, e := range grf.Edges() {
			if !grf.HasEdge(perm[e[0]], perm[e[1]]) {
				t.Fatalf("left multiplication by element %d is not an automorphism: edge %v broke", gi, e)
			}
		}
	}
}

func TestBuildDiameterAsymptotic(t *testing.T) {
	// §IV-b: LPS diameter ≈ (4/3)·log_p(n) — sanity check it is within
	// [log_p(n), 2·(4/3)·log_p(n)] for a mid-size instance.
	inst, err := LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := inst.G.AllPairsStats()
	logN := math.Log(float64(inst.G.N())) / math.Log(11)
	if float64(st.Diameter) < logN-1 || float64(st.Diameter) > 3*logN {
		t.Errorf("diameter %d outside plausible band around (4/3)log_p n = %.2f",
			st.Diameter, 4.0/3.0*logN)
	}
}

package exp

import (
	"bytes"
	"testing"
)

func TestAblateDragonFlyArrangement(t *testing.T) {
	// §VI-B: "the circulant arrangement provides better bisection
	// bandwidth than the absolute arrangement" — true for multi-link
	// (h > 1) configurations like the paper's simulation DragonFly.
	res, err := AblateDragonFlyArrangement(8, 4, 33, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.CirculantBisection <= 0 || res.AbsoluteBisection <= 0 {
		t.Fatalf("degenerate cuts: %+v", res)
	}
	if res.CirculantBisection < res.AbsoluteBisection {
		t.Errorf("circulant bisection %d should be >= absolute %d",
			res.CirculantBisection, res.AbsoluteBisection)
	}
}

func TestAblateLPSvsJellyfishSubRamanujan(t *testing.T) {
	// §II: random regular graphs are sub-Ramanujan (Friedman); LPS is
	// Ramanujan. LPS's λ(G) must respect the bound, Jellyfish's must be
	// larger than LPS's.
	res, err := AblateLPSvsJellyfish(11, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.LPSLambda > res.RamanujanBound+1e-8 {
		t.Errorf("LPS λ %.4f exceeds Ramanujan bound %.4f", res.LPSLambda, res.RamanujanBound)
	}
	if res.JellyfishLambda <= res.LPSLambda {
		t.Errorf("Jellyfish λ %.4f should exceed LPS λ %.4f",
			res.JellyfishLambda, res.LPSLambda)
	}
}

func TestAblateDiscrepancyLPSBeatsDragonFly(t *testing.T) {
	// §II/Fig 1: SpectralFly's discrepancy property forbids bottleneck
	// subset pairs; DragonFly's group structure concentrates edges.
	res, err := AblateDiscrepancy(150, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.LPSMean >= res.DragonFlyMean {
		t.Errorf("LPS mean discrepancy %.4f should beat DragonFly %.4f",
			res.LPSMean, res.DragonFlyMean)
	}
	if res.LPSMax >= res.DragonFlyMax {
		t.Errorf("LPS max discrepancy %.4f should beat DragonFly %.4f",
			res.LPSMax, res.DragonFlyMax)
	}
}

func TestAblateBetweennessFlatness(t *testing.T) {
	// §V: all three class-1 topologies are vertex-transitive, so their
	// VERTEX betweenness is flat (ratio ≈ 1). The bottleneck lives in
	// the EDGES: DragonFly's single global link per router pair carries
	// far more shortest paths than its local links, while LPS's edge
	// profile stays nearly uniform.
	res, err := AblateBetweenness()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]float64{
		"LPS": res.LPS.Ratio, "SF": res.SlimFly.Ratio, "DF": res.DragonFly.Ratio,
	} {
		if r > 1.2 {
			t.Errorf("%s vertex betweenness ratio %.3f should be ≈1 (vertex-transitive)", name, r)
		}
	}
	if res.DragonEdge.Ratio <= res.LPSEdge.Ratio {
		t.Errorf("DragonFly edge bottleneck %.3f should exceed LPS %.3f",
			res.DragonEdge.Ratio, res.LPSEdge.Ratio)
	}
	if res.DragonEdge.Ratio < 1.5 {
		t.Errorf("DragonFly global links should be clear bottlenecks (ratio %.3f)", res.DragonEdge.Ratio)
	}
}

func TestAblateLayoutGain(t *testing.T) {
	res, err := AblateLayout(11, 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gain <= 1.0 {
		t.Errorf("optimized layout should beat sequential: gain %.3f", res.Gain)
	}
	if res.Optimized <= 0 {
		t.Error("degenerate wire totals")
	}
	// §VII: the heuristic outperforms the FAQ baseline.
	if res.Optimized >= res.FAQ {
		t.Errorf("annealed layout (%.0f m) should beat FAQ (%.0f m)", res.Optimized, res.FAQ)
	}
	if res.FAQ >= res.Sequential {
		t.Errorf("FAQ (%.0f m) should at least beat naive placement (%.0f m)", res.FAQ, res.Sequential)
	}
}

func TestAblationsFprint(t *testing.T) {
	a, err := RunAblations(Quick, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	a.Fprint(&buf)
	if buf.Len() == 0 {
		t.Error("no output")
	}
}

package topo

import (
	"testing"

	"repro/internal/spectral"
)

func TestLPS197OutsideRamanujanRegime(t *testing.T) {
	// Table II uses LPS(19,7): q = 7 < 2√19, so Definition 3's guarantee
	// does not apply, but the Cayley graph still exists: 336 routers of
	// radix 20 (Table II row 2).
	inst, err := LPS(19, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := inst.G
	if g.N() != 336 {
		t.Fatalf("n=%d want 336", g.N())
	}
	if k, ok := g.Regularity(); !ok || k != 20 {
		t.Fatalf("radix (%d,%v) want 20", k, ok)
	}
	if !g.IsConnected() {
		t.Fatal("disconnected")
	}
	// It happens to still be a decent expander; record λ against the
	// bound without asserting the inequality either way.
	sp := spectral.Analyze(g, spectral.Options{Seed: 1})
	if sp.LambdaG() <= 0 {
		t.Error("degenerate spectrum")
	}
}

func TestTableIISpecsBuildable(t *testing.T) {
	// Every Table II instance must build under its paper name with the
	// expected router count.
	type row struct {
		name    string
		routers int
	}
	want := [4][2]row{
		{{"LPS(11,7)", 168}, {"SF(9)", 162}},
		{{"LPS(19,7)", 336}, {"SF(13)", 338}},
		{{"LPS(23,11)", 660}, {"SF(17)", 578}},
		{{"LPS(29,13)", 1092}, {"SF(23)", 1058}},
	}
	for pi, pair := range TableIISpecs {
		for si, spec := range pair {
			inst, err := spec.Build()
			if err != nil {
				t.Errorf("%s: %v", spec, err)
				continue
			}
			if w := want[pi][si]; inst.Name != w.name || inst.G.N() != w.routers {
				t.Errorf("%s: built %s with %d routers, want %s with %d", spec, inst.Name, inst.G.N(), w.name, w.routers)
			}
		}
	}
}

func TestSlimFly23And13(t *testing.T) {
	// Table II SlimFly entries: SF(13) radix 19, SF(23) radix 35.
	for _, c := range []struct {
		q     int64
		n     int
		radix int
	}{{13, 338, 19}, {23, 1058, 35}} {
		inst := MustSlimFly(c.q)
		if inst.G.N() != c.n {
			t.Errorf("SF(%d): n=%d want %d", c.q, inst.G.N(), c.n)
		}
		if k, _ := inst.G.Regularity(); k != c.radix {
			t.Errorf("SF(%d): radix %d want %d", c.q, k, c.radix)
		}
		if st := inst.G.AllPairsStats(); st.Diameter != 2 {
			t.Errorf("SF(%d): diameter %d want 2", c.q, st.Diameter)
		}
	}
}

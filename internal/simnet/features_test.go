package simnet

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
)

func TestUGALGRoutesAndRespectsVCBudget(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw := build(t, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{policy: routing.UGALG, seed: 4})
	pattern := uniformWorkload(nw.Endpoints())
	st := nw.RunLoad(pattern, 0.4, 20)
	if st.Delivered == 0 {
		t.Fatal("idle")
	}
	if int(st.MaxVC) > 2*tab.Diameter() {
		t.Errorf("UGAL-G exceeded 2d hops: %d", st.MaxVC)
	}
}

func TestUGALGPrefersMinimalWhenIdle(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw := build(t, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{policy: routing.UGALG, seed: 5})
	pattern := uniformWorkload(nw.Endpoints())
	st := nw.RunLoad(pattern, 0.05, 8)
	frac := float64(st.ValiantTaken) / float64(st.Delivered)
	if frac > 0.05 {
		t.Errorf("UGAL-G diverted %.1f%% at idle; minimal paths are strictly shorter", 100*frac)
	}
}

func TestUGALGDivertsUnderHotspot(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw := build(t, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{policy: routing.UGALG, seed: 6})
	hot := uniformWorkload(4)
	st := nw.RunLoad(hot, 0.7, 25)
	if st.ValiantTaken == 0 {
		t.Error("UGAL-G never diverted under a hotspot")
	}
}

func TestSaturationLoadOrdering(t *testing.T) {
	// The saturation knee must lie in (0, 1] and light patterns saturate
	// later than hotspots.
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw := build(t, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{seed: 9})
	uniform := uniformWorkload(nw.Endpoints())
	// Mild hotspot: a third of the endpoints receive all traffic, so the
	// hot ejection ports saturate around 3× lower load than uniform —
	// but are NOT already saturated at the 5% baseline.
	hotspot := uniformWorkload(nw.Endpoints() / 3)
	su := nw.SaturationLoad(uniform, 15)
	sh := nw.SaturationLoad(hotspot, 15)
	if su <= 0 || su > 1 || sh <= 0 || sh > 1 {
		t.Fatalf("saturation loads out of range: %v %v", su, sh)
	}
	if sh >= su {
		t.Errorf("hotspot should saturate earlier: hotspot %.3f vs uniform %.3f", sh, su)
	}
}

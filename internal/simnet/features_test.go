package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
)

func TestUGALGRoutesAndRespectsVCBudget(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw, err := New(Config{Topo: inst.G, Concentration: 2, Policy: routing.UGALG, Seed: 4}, tab)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }
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
	nw, err := New(Config{Topo: inst.G, Concentration: 2, Policy: routing.UGALG, Seed: 5}, tab)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }
	st := nw.RunLoad(pattern, 0.05, 8)
	frac := float64(st.ValiantTaken) / float64(st.Delivered)
	if frac > 0.05 {
		t.Errorf("UGAL-G diverted %.1f%% at idle; minimal paths are strictly shorter", 100*frac)
	}
}

func TestUGALGDivertsUnderHotspot(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw, err := New(Config{Topo: inst.G, Concentration: 2, Policy: routing.UGALG, Seed: 6}, tab)
	if err != nil {
		t.Fatal(err)
	}
	hot := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(4) }
	st := nw.RunLoad(hot, 0.7, 25)
	if st.ValiantTaken == 0 {
		t.Error("UGAL-G never diverted under a hotspot")
	}
}

func TestFiniteBuffersSlowHotspotTraffic(t *testing.T) {
	// With a hot destination, finite buffers must propagate backpressure
	// and increase completion time versus unbounded queues.
	inst := topo.MustSlimFly(5)
	tab := routing.NewTable(inst.G)
	hot := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(2) }
	run := func(buffers int) Stats {
		nw, err := New(Config{
			Topo: inst.G, Concentration: 2, Seed: 7, BufferPackets: buffers,
		}, tab)
		if err != nil {
			t.Fatal(err)
		}
		return nw.RunLoad(hot, 0.8, 20)
	}
	unbounded := run(0)
	tight := run(1)
	if tight.Delivered != unbounded.Delivered {
		t.Fatalf("delivery counts differ: %d vs %d", tight.Delivered, unbounded.Delivered)
	}
	if tight.Makespan < unbounded.Makespan {
		t.Errorf("finite buffers should not finish earlier: %d vs %d",
			tight.Makespan, unbounded.Makespan)
	}
}

func TestFiniteBuffersHarmlessWhenLarge(t *testing.T) {
	// Huge buffers behave like unbounded queues.
	inst := topo.MustSlimFly(5)
	tab := routing.NewTable(inst.G)
	pattern := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(inst.G.N() * 2) }
	mk := func(buffers int) Stats {
		nw, _ := New(Config{Topo: inst.G, Concentration: 2, Seed: 8, BufferPackets: buffers}, tab)
		return nw.RunLoad(pattern, 0.3, 15)
	}
	a, b := mk(0), mk(1_000_000)
	if !a.Equal(b) {
		t.Errorf("large finite buffers diverge from unbounded:\n%+v\n%+v", a, b)
	}
}

func TestSaturationLoadOrdering(t *testing.T) {
	// The saturation knee must lie in (0, 1] and light patterns saturate
	// later than hotspots.
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw, err := New(Config{Topo: inst.G, Concentration: 2, Seed: 9}, tab)
	if err != nil {
		t.Fatal(err)
	}
	uniform := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }
	// Mild hotspot: a third of the endpoints receive all traffic, so the
	// hot ejection ports saturate around 3× lower load than uniform —
	// but are NOT already saturated at the 5% baseline.
	hotspot := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nw.Endpoints() / 3) }
	su := nw.SaturationLoad(uniform, 15)
	sh := nw.SaturationLoad(hotspot, 15)
	if su <= 0 || su > 1 || sh <= 0 || sh > 1 {
		t.Fatalf("saturation loads out of range: %v %v", su, sh)
	}
	if sh >= su {
		t.Errorf("hotspot should saturate earlier: hotspot %.3f vs uniform %.3f", sh, su)
	}
}

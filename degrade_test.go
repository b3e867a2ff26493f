package spectralfly

import "testing"

func countDead(mask []bool) int {
	n := 0
	for _, d := range mask {
		if d {
			n++
		}
	}
	return n
}

// TestDegradeStacksPlans is the regression test for the composition
// bug: degrading an already-degraded network used to overwrite the
// first plan's dead routers with the second's, so stacked damage
// silently resurrected routers.
func TestDegradeStacksPlans(t *testing.T) {
	net, err := LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	d1 := mustDegrade(t, net, PlanRandomRouters(0.15, 1))
	first := countDead(d1.failedRouters)
	if first == 0 {
		t.Fatal("first plan killed nobody")
	}

	d2 := mustDegrade(t, d1, PlanRandomRouters(0.15, 2))
	for v, dead := range d1.failedRouters {
		if dead && !d2.failedRouters[v] {
			t.Fatalf("router %d died under plan 1 but was resurrected by plan 2", v)
		}
	}
	if got := countDead(d2.failedRouters); got <= first {
		t.Errorf("stacked plans killed %d routers, want more than the first plan's %d", got, first)
	}
	// The merge must not mutate the first network's mask in place.
	if countDead(d1.failedRouters) != first {
		t.Error("stacking mutated the first degraded network's dead-router mask")
	}

	// A link plan on top of router kills must keep the routers dead
	// (Outcome.DeadRouters is nil for pure link plans).
	d3 := mustDegrade(t, d2, PlanRandomLinks(0.05, 3))
	if countDead(d3.failedRouters) != countDead(d2.failedRouters) {
		t.Error("link plan dropped the dead-router mask")
	}
	if d3.G.M() >= d2.G.M() {
		t.Error("link plan cut no links")
	}

	// End to end: traffic on the stacked network drops at least as much
	// as on the singly-degraded one.
	st1 := mustRunUniform(t, mustSimulate(t, d1, SimConfig{Concentration: 2, Seed: 9}), 0.3, 5)
	st2 := mustRunUniform(t, mustSimulate(t, d2, SimConfig{Concentration: 2, Seed: 9}), 0.3, 5)
	if st2.DeliveredFraction() > st1.DeliveredFraction() {
		t.Errorf("stacked damage delivered %.3f, more than single damage %.3f",
			st2.DeliveredFraction(), st1.DeliveredFraction())
	}
}

// TestSimKeepsDeadRouters: a degraded network's dead routers reach
// every run, so the same damaged wiring without the dead set runs
// differently.
func TestSimKeepsDeadRouters(t *testing.T) {
	net, _ := LPS(11, 7)
	hurt := mustDegrade(t, net, PlanRandomRouters(0.2, 4))
	wiring := &Network{Name: hurt.Name, G: hurt.G}
	cfg := SimConfig{Concentration: 2, Seed: 9}
	dead := mustRunUniform(t, mustSimulate(t, hurt, cfg), 0.3, 5)
	alive := mustRunUniform(t, mustSimulate(t, wiring, cfg), 0.3, 5)
	dead.MemoryBytes, alive.MemoryBytes = 0, 0
	if dead.Equal(alive) {
		t.Fatalf("the dead-router set changed nothing: %+v", dead)
	}
}

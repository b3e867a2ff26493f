package runner

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topo"
)

// TestRegisterTableInstallsRepairedTable verifies the resilience-sweep
// contract: a table registered for a damaged graph is the one the memo
// serves — to Table and to the simulator prototype Network builds — so
// no silent NewTable rebuild of the damaged instance ever happens.
func TestRegisterTableInstallsRepairedTable(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	r := New(2)
	base := r.Table(inst.G)

	plan := fault.Plan{Kind: fault.Routers, Fraction: 0.1, Seed: 3}
	out := plan.Apply(inst.G)
	repaired := base.Repair(out.Removed)
	r.RegisterTable(repaired.G, repaired)
	if got := r.Table(repaired.G); got != repaired {
		t.Fatal("registered table was not reused by the memo")
	}
	if _, err := r.Network(repaired.G, 2); err != nil {
		t.Fatal(err)
	}
	if n := len(r.tables); n != 2 || r.Table(repaired.G) != repaired {
		t.Errorf("Network rebuilt the damaged table (%d memoized tables)", n)
	}
}

func TestReleaseDropsMemoEntries(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	r := New(1)
	t1 := r.Table(inst.G)
	if _, err := r.Network(inst.G, 2); err != nil {
		t.Fatal(err)
	}
	r.Release(inst.G)
	if len(r.protos) != 0 {
		t.Fatal("Release left the simulator prototype in place")
	}
	if t2 := r.Table(inst.G); t2 == t1 {
		t.Fatal("Release left the memoized table in place")
	}
	r.Release(inst.G)
	r.Release(topo.MustSlimFly(9).G) // unknown graph: no-op, no panic
}

func TestRegisterTableRejectsMismatchedGraph(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	other := topo.MustSlimFly(9)
	r := New(1)
	tab := routing.NewTable(inst.G)
	defer func() {
		if recover() == nil {
			t.Error("RegisterTable accepted a table for a different graph")
		}
	}()
	r.RegisterTable(other.G, tab)
}

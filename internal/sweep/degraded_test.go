package sweep

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/topo"
)

// degradedPair returns a fault-axis grid over one instance, with its
// intact cells omitted, and the same grid over that instance degraded
// up front by the plan the fault axis samples: the damaged graph with
// the plan's dead routers as Instance.Dead. Both grids use cell keys
// that leave out the topology and fault labels, so matching cells
// share a simulation seed.
func degradedPair(t *testing.T) (faulty, degraded *Grid) {
	t.Helper()
	faulty = loadGrid(t)
	inst := faulty.Instances[0]
	f := FaultAxis{Kind: fault.Routers, Fraction: 0.2}
	faulty.Instances = []Instance{inst}
	faulty.Faults = []FaultAxis{f}
	faulty.OmitIntact = true
	faulty.Keys = Keys{
		CellKey: func(c *Cell) string { return fmt.Sprintf("cell/%s/%s/%v", c.Policy, c.Pattern, c.Load) },
		PlanKey: func(string, FaultAxis, int) string { return "plan" },
	}
	out := fault.Plan{Kind: f.Kind, Fraction: f.Fraction, Seed: runner.DeriveSeed(faulty.Seed, "plan")}.Apply(inst.Inst.G)
	if out.DeadRouters == nil {
		t.Fatal("the plan killed no router")
	}
	d := *faulty
	d.Faults, d.OmitIntact = nil, false
	damaged := &topo.Instance{Name: inst.Name, G: inst.Inst.G.RemoveEdges(out.Removed)}
	d.Instances = []Instance{{Name: inst.Name, Inst: damaged, Concentration: inst.Concentration, Dead: out.DeadRouters}}
	return faulty, &d
}

// TestDegradedInstanceMatchesFaultCell: an instance degraded before
// the sweep measures exactly what the fault-axis cell that sampled the
// same plan measures. The repaired table equals a rebuild over the
// damaged graph, and the dead routers drop the same traffic.
func TestDegradedInstanceMatchesFaultCell(t *testing.T) {
	faulty, degraded := degradedPair(t)
	want, err := faulty.Collect(context.Background(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := degraded.Collect(context.Background(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 8 {
		t.Fatalf("%d degraded cells, %d fault cells, want 8 each", len(got), len(want))
	}
	for i := range got {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("cell %d: errors %v, %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Stats.Dropped == 0 {
			t.Errorf("cell %d: dead routers dropped no traffic", i)
		}
		if !got[i].Stats.Equal(want[i].Stats) {
			t.Errorf("cell %d: degraded instance\n%+v\nfault cell\n%+v", i, got[i].Stats, want[i].Stats)
		}
	}
}

// TestValidateDeadWithAxes: a dead set is the damage of a network
// degraded before the sweep; a fault or schedule axis samples damage
// on an intact instance, so the two are not combined.
func TestValidateDeadWithAxes(t *testing.T) {
	_, degraded := degradedPair(t)
	withFaults := *degraded
	withFaults.Faults = []FaultAxis{{Kind: fault.Links, Fraction: 0.1}}
	withSchedules := *degraded
	withSchedules.Schedules = []ScheduleAxis{{Name: "churn", Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 5}}
	for name, g := range map[string]*Grid{"fault": &withFaults, "schedule": &withSchedules} {
		err := g.Run(context.Background(), Options{}, func(Result) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "dead routers") {
			t.Errorf("dead set with a %s axis: err %v, want a dead-router error", name, err)
		}
	}
}

// TestDeadSetKeys: two grids that differ only in the dead set get
// different content keys and fingerprints, so a cache never serves one
// for the other.
func TestDeadSetKeys(t *testing.T) {
	_, degraded := degradedPair(t)
	intact := *degraded
	intact.Instances = []Instance{degraded.Instances[0]}
	intact.Instances[0].Dead = nil
	a, err := degraded.ContentKeys(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := intact.ContentKeys(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("cell %d: the dead set did not move the content key", i)
		}
	}
	fa, err := degraded.Fingerprint(0)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := intact.Fingerprint(0)
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Error("the dead set did not move the fingerprint")
	}
}

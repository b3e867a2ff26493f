package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// sim is one (policy × pattern × load) simulation point over a shared
// instance, with its seed derived from a stable key.
type sim struct {
	key     string
	policy  routing.Policy
	pattern traffic.Pattern
	load    float64
}

func smallGrid() []sim {
	var sims []sim
	for _, pol := range []routing.Policy{routing.Minimal, routing.UGALL} {
		for _, pat := range []traffic.Pattern{traffic.Random, traffic.BitShuffle} {
			for _, load := range []float64{0.2, 0.5} {
				sims = append(sims, sim{
					key:    fmt.Sprintf("test/%s/%s/%.2f", pol, pat, load),
					policy: pol, pattern: pat, load: load,
				})
			}
		}
	}
	return sims
}

// runSims executes the grid on r's pool the way a sweep does: each
// index simulates on a private Network clone with a memoized mapping,
// and the stream hands the results back in index order.
func runSims(t *testing.T, r *Runner, inst *topo.Instance, sims []sim) []simnet.Stats {
	t.Helper()
	out := make([]simnet.Stats, len(sims))
	errs := make([]error, len(sims))
	err := r.RunStream(context.Background(), len(sims), func(i int) {
		nw, err := r.Network(inst.G, 2)
		if err != nil {
			errs[i] = err
			return
		}
		nw.SetPolicy(sims[i].policy)
		nw.SetSeed(DeriveSeed(11, sims[i].key))
		mp, err := r.Mapping(128, nw.Endpoints(), 11)
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = nw.RunLoad(mp.PatternEndpoints(sims[i].pattern, 128), sims[i].load, 4)
	}, func(i int) error { return errs[i] })
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range out {
		if st.Delivered == 0 {
			t.Fatalf("sim %d (%s): no traffic", i, sims[i].key)
		}
	}
	return out
}

// TestSerialParallelEquivalence: the same simulations must produce
// identical Stats, in identical order, on 1 worker and on many. This
// is the determinism contract of the engine: clones of a shared
// prototype keep all run state private, seeds come from stable keys,
// and the stream reassembles results in index order.
func TestSerialParallelEquivalence(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	sims := smallGrid()
	serial := runSims(t, New(1), inst, sims)
	parallel := runSims(t, New(8), inst, sims)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serial and parallel runs diverged:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

// TestSharedArtifactsMemoized: all simulations of one instance share
// one routing table, one simulator prototype and one mapping, while
// every Network call hands out a private clone.
func TestSharedArtifactsMemoized(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	r := New(4)
	runSims(t, r, inst, smallGrid())
	if n := len(r.tables); n != 1 {
		t.Errorf("built %d routing tables for 1 instance", n)
	}
	if n := len(r.protos); n != 1 {
		t.Errorf("built %d simulator prototypes for 1 (instance, concentration)", n)
	}
	if n := len(r.maps); n != 1 {
		t.Errorf("built %d mappings for 1 (endpoints, ranks, seed)", n)
	}
	// The memoized table is shared with direct lookups.
	if r.Table(inst.G) != r.Table(inst.G) {
		t.Error("Table not memoized")
	}
	a, err := r.Network(inst.G, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Network(inst.G, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == r.protos[protoKey{g: inst.G, conc: 2}].proto {
		t.Error("Network handed out a shared simulator instead of a private clone")
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(7, "load/LPS(11,7)/minimal/random/0.3000")
	b := DeriveSeed(7, "load/LPS(11,7)/minimal/random/0.3000")
	c := DeriveSeed(7, "load/LPS(11,7)/minimal/random/0.5000")
	if a != b {
		t.Error("DeriveSeed not deterministic")
	}
	if a == c {
		t.Error("distinct keys collided")
	}
	if DeriveSeed(8, "x") == DeriveSeed(7, "x") {
		t.Error("base seed ignored")
	}
	if DeriveSeed(0, "") == 0 {
		t.Error("zero seed escaped (would alias option defaults)")
	}
}

func TestDo(t *testing.T) {
	ran := make([]bool, 5)
	if err := Do(3,
		func() error { ran[0] = true; return nil },
		func() error { ran[1] = true; return nil },
		func() error { ran[2] = true; return errors.New("boom2") },
		func() error { ran[3] = true; return nil },
		func() error { ran[4] = true; return errors.New("boom4") },
	); err == nil || err.Error() != "boom2" {
		t.Errorf("want first error by task order, got %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("task %d skipped", i)
		}
	}
}

package spectralfly

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/routing"
	"repro/internal/traffic"
)

func testSweep() *Sweep {
	return NewSweep("lps(11,7)", "sf(9)").
		Concentration(2).
		Policies(RoutingMinimal, RoutingUGAL).
		Patterns(PatternRandom).
		Loads(0.2, 0.5).
		Ranks(64).
		MsgsPerRank(4).
		Seed(11)
}

func TestSweepDeterministicAcrossParallel(t *testing.T) {
	serial, err := testSweep().Parallel(1).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := testSweep().Parallel(4).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 2*2*2 {
		t.Fatalf("got %d cells, want 8", len(serial))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("sweep results differ between Parallel(1) and Parallel(4)")
	}
	for i, res := range serial {
		if res.Err != nil {
			t.Fatalf("cell %d: %v", i, res.Err)
		}
		if res.Index != i || res.Stats.Delivered == 0 {
			t.Fatalf("cell %d malformed: %+v", i, res.Cell)
		}
	}
}

// TestSweepConcentrationChaining: the documented chaining order
// NewSweep(specs...).Concentration(2) must apply the concentration to
// the already-added topologies (regression: they silently stayed at
// 1), while interleaved calls still declare mixed axes.
func TestSweepConcentrationChaining(t *testing.T) {
	g, err := NewSweep("lps(11,7)").Concentration(2).Loads(0.3).build()
	if err != nil {
		t.Fatal(err)
	}
	if c := g.Instances[0].Concentration; c != 2 {
		t.Errorf("NewSweep(...).Concentration(2) left concentration %d", c)
	}
	mixed, err := NewSweep().
		Concentration(4).Topologies("lps(11,7)").
		Concentration(6).Topologies("sf(9)").
		Loads(0.3).build()
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Instances[0].Concentration != 4 || mixed.Instances[1].Concentration != 6 {
		t.Errorf("mixed concentrations broken: %d, %d",
			mixed.Instances[0].Concentration, mixed.Instances[1].Concentration)
	}
	plain, err := NewSweep("sf(9)").Loads(0.3).build()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Instances[0].Concentration != 1 {
		t.Errorf("default concentration %d, want 1", plain.Instances[0].Concentration)
	}
}

func TestSweepFaultAxis(t *testing.T) {
	sw := NewSweep("lps(11,7)").
		Concentration(2).
		Loads(0.3).
		Faults(FaultLinks(0.1, 2), FaultRegions(0.2, 8, 1)).
		Ranks(64).MsgsPerRank(4).Seed(11)
	res, err := sw.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 1 intact + 2 link trials + 1 region trial.
	if len(res) != 4 {
		t.Fatalf("got %d cells, want 4", len(res))
	}
	if res[0].Fault != "none" || res[1].Fault != "links" || res[3].Fault != "regions" {
		t.Fatalf("fault axis order broken: %+v", res)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
	}
	// Region kills must lose traffic; the intact baseline must not.
	if res[0].Stats.DeliveredFraction() != 1 {
		t.Error("intact baseline lost traffic")
	}
	if res[3].Stats.DeliveredFraction() >= 1 {
		t.Error("region outage lost no traffic")
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var got []CellResult
	start := time.Now()
	err := testSweep().Parallel(2).Run(ctx, func(res CellResult) error {
		got = append(got, res)
		if len(got) == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("cancellation took %v", took)
	}
	if len(got) < 2 || len(got) >= 8 {
		t.Fatalf("partial delivery of %d cells out of 8", len(got))
	}
	for i, res := range got {
		if res.Index != i {
			t.Fatalf("partial results are not a prefix: position %d has index %d", i, res.Index)
		}
	}
}

func TestSweepStreamChannel(t *testing.T) {
	ch, wait := testSweep().Stream(context.Background())
	var got []CellResult
	for res := range ch {
		got = append(got, res)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	want, err := testSweep().Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("channel delivery differs from Collect")
	}
}

func TestSweepSaturationMeasure(t *testing.T) {
	res, err := NewSweep("lps(11,7)").Concentration(2).
		Saturation().MsgsPerRank(4).Seed(7).
		Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("results: %+v", res)
	}
	if res[0].Saturation <= 0 || res[0].Saturation > 1 {
		t.Errorf("saturation %v out of range", res[0].Saturation)
	}
}

func TestSweepMotifMeasure(t *testing.T) {
	res, err := NewSweep("lps(11,7)").Concentration(2).
		Motifs(Halo3D26{NX: 4, NY: 4, NZ: 4, Iters: 1}).
		Ranks(64).Seed(7).
		Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("results: %+v", res)
	}
	if res[0].Stats.Makespan <= 0 {
		t.Error("motif cell has no makespan")
	}

	// With Ranks unset, the sweep must size the rank space to the
	// motif (regression: the endpoint-derived power-of-two default was
	// too small and every cell errored).
	res, err = NewSweep("lps(11,7)").Concentration(4). // 672 endpoints
								Motifs(Halo3D26{NX: 8, NY: 8, NZ: 8, Iters: 1}). // needs 512 ranks
								Seed(7).
								Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Errorf("motif sweep with defaulted ranks failed: %v", res[0].Err)
	}
}

// TestSweepSeededSpecIdentity: two seeds of a randomized family must
// be distinct sweep identities (regression: both were named
// "Jellyfish(n=...,k=...)", colliding cell keys and derived seeds).
func TestSweepSeededSpecIdentity(t *testing.T) {
	cells, err := NewSweep("jf(128,5,s=1)", "jf(128,5,s=2)").
		Loads(0.3).Ranks(64).MsgsPerRank(4).Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Topology == cells[1].Topology {
		t.Fatalf("seeded specs collide: %+v", cells)
	}
	if cells[0].Topology != "jf(128,5,s=1)" {
		t.Errorf("spec-built name %q, want canonical spec", cells[0].Topology)
	}
}

// TestSweepTableBackendsAgree: the façade leaves the store to the
// size rule (dense on these small instances); the same grid on packed
// and lazy tables, forced through the engine's Options.Tables, must
// reproduce its results exactly.
func TestSweepTableBackendsAgree(t *testing.T) {
	auto, err := testSweep().Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []routing.Store{routing.StorePacked, routing.StoreLazy} {
		sw := testSweep()
		g, err := sw.build()
		if err != nil {
			t.Fatal(err)
		}
		opts := sw.options()
		opts.Tables = routing.TableOptions{Store: store}
		got, err := g.Collect(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(auto, got) {
			t.Errorf("%s table backend changes sweep results", store)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := NewSweep().Collect(context.Background()); err == nil {
		t.Error("empty sweep ran")
	}
	if _, err := NewSweep("torus(4)").Collect(context.Background()); err == nil {
		t.Error("bad spec did not surface at Collect")
	}
	net, _ := LPS(11, 7)
	degraded := mustDegrade(t, net, PlanRandomRouters(0.1, 1))
	if _, err := NewSweep().Networks(degraded).Loads(0.3).Collect(context.Background()); err == nil {
		t.Error("degraded network accepted as a sweep topology")
	}
	// Pure link damage leaves failedRouters nil but must be rejected too.
	linkHurt := mustDegrade(t, net, PlanRandomLinks(0.1, 1))
	if _, err := NewSweep().Networks(linkHurt).Loads(0.3).Collect(context.Background()); err == nil {
		t.Error("link-degraded network accepted as a sweep topology")
	}
	if _, err := NewSweep().Networks(nil).Loads(0.3).Collect(context.Background()); err == nil {
		t.Error("nil network accepted as a sweep topology")
	}
	// A concentration below 1 or a negative message count would
	// measure nothing: every cell would offer 0 messages, and CellKeys
	// would key the empty results for the cache. A negative rank count
	// would fail every cell at run time instead of the sweep up front.
	for name, sw := range map[string]*Sweep{
		"concentration 0":  NewSweep("lps(11,7)").Concentration(0).Loads(0.3),
		"concentration -2": NewSweep("lps(11,7)").Concentration(-2).Loads(0.3),
		"msgs -5":          NewSweep("lps(11,7)").Concentration(2).MsgsPerRank(-5).Loads(0.3),
		"ranks -3":         NewSweep("lps(11,7)").Concentration(2).Ranks(-3).Loads(0.3),
	} {
		if _, err := sw.CellKeys(); err == nil {
			t.Errorf("%s: CellKeys gave keys, want an error", name)
		}
		if _, err := sw.Collect(context.Background()); err == nil {
			t.Errorf("%s: sweep ran, want an error", name)
		}
	}
	// A sweep is re-runnable: Collect twice gives identical results.
	sw := testSweep()
	a, err := sw.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sw.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("re-running a sweep changed its results")
	}
}

// TestSweepRejectsUnknownKinds pins an error, not a panic or a
// silently mislabelled run, for a routing policy, traffic pattern or
// fault kind outside the named ones on any axis that takes one. Parallel(2) puts the cells on worker goroutines,
// where a panic would take the process down.
func TestSweepRejectsUnknownKinds(t *testing.T) {
	base := func() *Sweep {
		return NewSweep("lps(11,7)").Concentration(2).Loads(0.3).Ranks(64).MsgsPerRank(2).Parallel(2)
	}
	for name, sw := range map[string]*Sweep{
		"policy axis":    base().Policies(routing.Policy(7)),
		"policy below":   base().Policies(RoutingMinimal, routing.Policy(-1)),
		"pattern axis":   base().Patterns(traffic.Pattern(9)),
		"shift traffic":  base().ShiftTraffic(500, traffic.Pattern(9), PatternRandom),
		"tenant pattern": base().Tenants("sequential", TenantSpec{Name: "t", Pattern: 9, Ranks: 32}),
		"fault kind":     base().Faults(FaultAxis{Kind: 7, Fraction: 0.1}),
		"churn kind": base().Schedules(ScheduleAxis{Name: "bad-churn", Kind: 7, Fraction: 0.1,
			Period: 1000, Outage: 100}),
	} {
		if _, err := sw.Collect(context.Background()); err == nil {
			t.Errorf("%s: sweep ran, want an error", name)
		}
	}
}

func TestSweepCellsPreview(t *testing.T) {
	sw := testSweep().Faults(FaultLinks(0.1, 2))
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(res) {
		t.Fatalf("preview %d cells, run delivered %d", len(cells), len(res))
	}
	for i := range cells {
		if !reflect.DeepEqual(cells[i], res[i].Cell) {
			t.Fatalf("cell %d preview differs from delivery: %+v vs %+v", i, cells[i], res[i].Cell)
		}
	}
}

// TestSweepScheduleAxis: the public reconfiguration surface — churn
// axes from the helpers, shifting traffic, serial/parallel identity —
// and the empty-schedule invariance (a schedule axis appends cells
// without perturbing the static ones).
func TestSweepScheduleAxis(t *testing.T) {
	mk := func() *Sweep {
		return NewSweep("lps(11,7)").
			Concentration(2).
			Loads(0.3).
			ShiftTraffic(500, PatternRandom, PatternTranspose).
			Ranks(64).MsgsPerRank(4).Seed(11)
	}
	static, err := mk().Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	withSched := func() *Sweep {
		return mk().Schedules(
			ChurnLinks(0.05, 400, 150, 2, 2),
			ChurnRouters(0.05, 500, 200, 1, 1),
		)
	}
	serial, err := withSched().Parallel(1).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := withSched().Parallel(4).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(static)+3 {
		t.Fatalf("got %d cells, want %d static + 3 schedule", len(serial), len(static))
	}
	if !reflect.DeepEqual(serial[:len(static)], static) {
		t.Error("schedule axis perturbed the static cells")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("schedule sweep differs between Parallel(1) and Parallel(4)")
	}
	for _, r := range serial[len(static):] {
		if r.Err != nil {
			t.Fatalf("schedule cell %q/%d: %v", r.Schedule, r.Trial, r.Err)
		}
		if r.Schedule == "" || r.Stats.Delivered == 0 {
			t.Fatalf("schedule cell malformed: %+v", r.Cell)
		}
	}
	if serial[len(static)].Schedule != "links-churn" || serial[len(serial)-1].Schedule != "routers-churn" {
		t.Errorf("schedule axis order broken: %q ... %q",
			serial[len(static)].Schedule, serial[len(serial)-1].Schedule)
	}
}

// TestSweepTenantsLayout: the public multi-tenant + wire-model
// surface. Two tenants on disjoint rank sets under a clustered
// placement and QAP-derived per-link latencies must produce a
// per-tenant accounting row for every cell, stay deterministic across
// Parallel, and reject an unknown placement policy at Collect.
func TestSweepTenantsLayout(t *testing.T) {
	build := func() *Sweep {
		return NewSweep("lps(11,7)", "sf(9)").
			Concentration(2).
			Policies(RoutingMinimal).
			Loads(0.2, 0.5).
			MsgsPerRank(4).
			Seed(11).
			Tenants("clustered",
				TenantSpec{Name: "victim", Pattern: PatternRandom, Ranks: 32, Load: 0.05},
				TenantSpec{Name: "aggressor", Pattern: PatternTranspose, Ranks: 128},
			).
			Layout("qap")
	}
	serial, err := build().Parallel(1).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := build().Parallel(4).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("tenant sweep differs between Parallel(1) and Parallel(4)")
	}
	if len(serial) != 2*2 {
		t.Fatalf("got %d cells, want 4", len(serial))
	}
	for _, res := range serial {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if len(res.Stats.Tenants) != 2 {
			t.Fatalf("cell %v: %d tenant rows, want 2", res.Cell, len(res.Stats.Tenants))
		}
		for ti, ts := range res.Stats.Tenants {
			if ts.Offered == 0 || ts.Offered != ts.Delivered+ts.Dropped {
				t.Errorf("cell %v tenant %d: broken accounting %+v", res.Cell, ti, ts)
			}
		}
		// The aggressor's Load 0 defers to the cell's load axis, so it
		// must offer far more than the pinned 0.05-load victim.
		if v, a := res.Stats.Tenants[0], res.Stats.Tenants[1]; a.Offered <= v.Offered {
			t.Errorf("cell %v: aggressor offered %d <= victim %d", res.Cell, a.Offered, v.Offered)
		}
	}
	if _, err := build().Tenants("scatter").Collect(context.Background()); err == nil {
		t.Error("unknown placement policy accepted")
	}
	if _, err := build().Layout("grid").Collect(context.Background()); err == nil {
		t.Error("unknown layout mode accepted")
	}
}

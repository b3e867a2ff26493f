package sweep

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func testInstances(t testing.TB) []Instance {
	t.Helper()
	lps, err := topo.LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := topo.SlimFly(9)
	if err != nil {
		t.Fatal(err)
	}
	return []Instance{
		{Name: lps.Name, Inst: lps, Concentration: 2},
		{Name: sf.Name, Inst: sf, Concentration: 2},
	}
}

func loadGrid(t testing.TB) *Grid {
	return &Grid{
		Instances:   testInstances(t),
		Policies:    []routing.Policy{routing.Minimal, routing.UGALL},
		Patterns:    []traffic.Pattern{traffic.Random, traffic.BitShuffle},
		Loads:       []float64{0.2, 0.5},
		Measure:     MeasureLoad,
		Ranks:       64,
		MsgsPerRank: 4,
		Seed:        11,
	}
}

func faultGrid(t testing.TB) *Grid {
	g := loadGrid(t)
	g.Policies = g.Policies[:1]
	g.Patterns = g.Patterns[:1]
	g.Loads = g.Loads[:1]
	g.Faults = []FaultAxis{
		{Kind: fault.Links, Fraction: 0.1, Trials: 2},
		{Kind: fault.Regions, Fraction: 0.2, Trials: 2},
	}
	return g
}

// TestCellsOrder pins the deterministic enumeration of a fault grid:
// instances one at a time — intact cells first, then the fault axis
// entries trial by trial — with contiguous indices.
func TestCellsOrder(t *testing.T) {
	g := faultGrid(t)
	cells := g.Cells()
	wantLen := 2 /*instances*/ * (1 /*intact*/ + 2*2 /*axes × trials*/)
	if len(cells) != wantLen {
		t.Fatalf("got %d cells, want %d", len(cells), wantLen)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
	}
	if cells[0].Fault != "none" || cells[0].Instance != 0 {
		t.Errorf("instance 0's intact cell must come first: %+v", cells[0])
	}
	if cells[1].Fault != "links" || cells[1].Trial != 0 || cells[2].Trial != 1 {
		t.Errorf("fault cells out of order: %+v %+v", cells[1], cells[2])
	}
	if cells[3].Fault != "regions" || cells[4].Trial != 1 {
		t.Errorf("second axis out of order: %+v %+v", cells[3], cells[4])
	}
	if cells[5].Fault != "none" || cells[5].Instance != 1 {
		t.Errorf("instance 1 must start with its intact cell: %+v", cells[5])
	}

	// Without a fault axis the grid is instance-major intact cells.
	g.Faults = nil
	flat := g.Cells()
	if len(flat) != 2 || flat[0].Instance != 0 || flat[1].Instance != 1 {
		t.Errorf("intact-only enumeration broken: %+v", flat)
	}
}

// TestCellsSizedOnce pins groups' one allocation: the cell slice is
// sized exactly from the axis lengths, and every group's window is a
// view of that one array, for each measure and with fault, schedule
// and OmitIntact axes.
func TestCellsSizedOnce(t *testing.T) {
	omit := faultGrid(t)
	omit.OmitIntact = true
	motif := loadGrid(t)
	motif.Measure = MeasureMotif
	motif.Motifs = []traffic.Motif{traffic.Halo3D26{NX: 4, NY: 4, NZ: 4, Iters: 1}, traffic.FFT{NX: 4, NY: 4, NZ: 4, Iters: 1}}
	sat := faultGrid(t)
	sat.Measure = MeasureSaturation
	for name, g := range map[string]*Grid{
		"load": loadGrid(t), "faults": faultGrid(t), "faults+schedules": cacheGrid(t),
		"omit-intact": omit, "motif": motif, "saturation": sat,
	} {
		plan, all := g.groups()
		if len(all) == 0 || cap(all) != len(all) {
			t.Errorf("%s: %d cells in a slice of capacity %d", name, len(all), cap(all))
		}
		for _, gr := range plan {
			if len(gr.cells) > 0 && &gr.cells[0] != &all[gr.cells[0].Index] {
				t.Errorf("%s: group window at cell %d is not a view of the cell slice", name, gr.cells[0].Index)
			}
		}
	}
}

// TestRunParallelIndependence checks the core guarantee: identical
// results, in identical order, for any worker count — including on
// grids with a fault axis (incremental repair + registration).
func TestRunParallelIndependence(t *testing.T) {
	for name, mk := range map[string]func(testing.TB) *Grid{"load": loadGrid, "fault": faultGrid} {
		t.Run(name, func(t *testing.T) {
			serial, err := mk(t).Collect(context.Background(), Options{Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := mk(t).Collect(context.Background(), Options{Parallel: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) == 0 || len(serial) != len(parallel) {
				t.Fatalf("result counts: %d vs %d", len(serial), len(parallel))
			}
			for i := range serial {
				if serial[i].Err != nil || parallel[i].Err != nil {
					t.Fatalf("cell %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
				}
				if serial[i].Stats.Delivered == 0 {
					t.Fatalf("cell %d idle", i)
				}
				if !reflect.DeepEqual(serial[i], parallel[i]) {
					t.Errorf("cell %d diverges between worker counts", i)
				}
				// Region faults kill routers: their cells must lose traffic,
				// or the plan's dead-router mask never reached the simulator.
				if st := serial[i].Stats; serial[i].Fault == "regions" &&
					(st.Dropped == 0 || st.Offered != st.Delivered+st.Dropped) {
					t.Errorf("cell %d: region fault dropped %d of %d offered (delivered %d)",
						i, st.Dropped, st.Offered, st.Delivered)
				}
			}
		})
	}
}

// TestRunWorkersPlumbing: Options.Workers reaches each cell's
// simulator, and shard-count invariance (identical stats for every
// Workers, MemoryBytes aside) survives the whole sweep lifecycle.
func TestRunWorkersPlumbing(t *testing.T) {
	serial, err := loadGrid(t).Collect(context.Background(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := loadGrid(t).Collect(context.Background(), Options{Parallel: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w4, err := loadGrid(t).Collect(context.Background(), Options{Parallel: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 || len(serial) != len(w2) || len(serial) != len(w4) {
		t.Fatalf("result counts: %d / %d / %d", len(serial), len(w2), len(w4))
	}
	for i := range serial {
		if serial[i].Err != nil || w2[i].Err != nil || w4[i].Err != nil {
			t.Fatalf("cell %d errored: %v / %v / %v", i, serial[i].Err, w2[i].Err, w4[i].Err)
		}
		s, a, b := serial[i].Stats, w2[i].Stats, w4[i].Stats
		s.MemoryBytes, a.MemoryBytes, b.MemoryBytes = 0, 0, 0
		if !a.Equal(s) || !b.Equal(s) {
			t.Errorf("cell %d: stats differ across Workers 0/2/4:\n%+v\n%+v\n%+v", i, s, a, b)
		}
	}
}

// TestRunStoreIndependence: the packed and lazy backends must
// reproduce the dense results bit for bit, through the whole grid
// lifecycle: minimal and UGAL-L load cells, saturation searches, and
// load cells on damaged instances whose tables are repaired
// incrementally. Only the footprint may
// differ, and packed tables (the Cayley table on LPS) must peak at
// under a quarter of the 32-bit row cost of the tables dense holds at
// its peak (wideBytes).
func TestRunStoreIndependence(t *testing.T) {
	run := func(store routing.Store) ([]Result, int64) {
		var peak int64
		opts := Options{
			Tables:       routing.TableOptions{Store: store},
			OnTableBytes: func(b int64) { peak = max(peak, b) },
		}
		sat := &Grid{Instances: testInstances(t), Measure: MeasureSaturation, MsgsPerRank: 4, Seed: 7}
		var res []Result
		for _, g := range []*Grid{loadGrid(t), faultGrid(t), sat} {
			rows, err := g.Collect(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			res = append(res, rows...)
		}
		return res, peak
	}
	dense, denseBytes := run(routing.StoreDense)
	for _, store := range []routing.Store{routing.StorePacked, routing.StoreLazy} {
		got, bytes := run(store)
		if !reflect.DeepEqual(dense, got) {
			t.Errorf("%s store diverges from dense on the same grids", store)
		}
		if wide := wideBytes(denseBytes, testInstances(t)); store == routing.StorePacked && bytes*4 > wide {
			t.Errorf("packed peak %d table bytes not under a quarter of the 32-bit row cost %d (dense %d)",
				bytes, wide, denseBytes)
		}
	}

	// The grids above saturate at load 1, so their saturation rows
	// compare 1 with 1. BF(13,3) at concentration 3 and 50 messages per
	// endpoint has a knee below 1, which the bisection must find on
	// dense and packed rows alike. (Lazy rows are left out: its
	// working-set cap makes this search take seconds.)
	bf, err := topo.BundleFly(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	knee := func(store routing.Store) float64 {
		sat := &Grid{
			Instances:   []Instance{{Name: bf.Name, Inst: bf, Concentration: 3}},
			Measure:     MeasureSaturation,
			MsgsPerRank: 50,
			Seed:        7,
		}
		rows, err := sat.Collect(context.Background(), Options{Tables: routing.TableOptions{Store: store}})
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].Err != nil {
			t.Fatalf("%s saturation: %v", store, rows[0].Err)
		}
		return rows[0].Saturation
	}
	d, p := knee(routing.StoreDense), knee(routing.StorePacked)
	if !(d < 1) {
		t.Errorf("BF(13,3) dense knee %v, want below 1", d)
	}
	if p != d {
		t.Errorf("BF(13,3) packed knee %v, dense %v", p, d)
	}
}

// wideBytes is the 32-bit row cost of the tables behind a dense
// footprint. The instances' tables, intact and damaged, all have
// nibble rows, so a table over n routers costs n·⌈n/2⌉ + n·⌈n/4⌉ bytes
// dense and n²·4 + n·⌈n/4⌉ in 32-bit rows; scaling by the smallest of
// those ratios over the instances never overstates the cost.
func wideBytes(dense int64, insts []Instance) int64 {
	wide := int64(math.MaxInt64)
	for _, in := range insts {
		n := int64(in.Inst.G.N())
		wide = min(wide, dense*(n*n*4+n*((n+3)/4))/(n*((n+1)/2)+n*((n+3)/4)))
	}
	return wide
}

// TestRunMotifMeasure runs a motif grid end to end.
func TestRunMotifMeasure(t *testing.T) {
	g := &Grid{
		Instances: testInstances(t)[:1],
		Policies:  []routing.Policy{routing.Minimal},
		Motifs: []traffic.Motif{
			traffic.Halo3D26{NX: 4, NY: 4, NZ: 4, Iters: 1},
			traffic.FFT{NX: 4, NY: 4, NZ: 4, Iters: 1},
		},
		Measure: MeasureMotif,
		Ranks:   64,
		Seed:    7,
	}
	res, err := g.Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Stats.Makespan <= 0 {
			t.Errorf("motif %s produced no makespan", r.MotifTag)
		}
		if r.Stats.MeanLatency <= 0 || r.Stats.P99Latency <= 0 {
			t.Errorf("motif %s latency aggregation missing: %+v", r.MotifTag, r.Stats)
		}
	}
}

// TestRunSaturationMeasure runs a saturation grid end to end.
func TestRunSaturationMeasure(t *testing.T) {
	g := &Grid{
		Instances:   testInstances(t)[:1],
		Measure:     MeasureSaturation,
		MsgsPerRank: 4,
		Seed:        7,
	}
	res, err := g.Collect(context.Background(), Options{})
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

// TestRunCancellation: a cancelled context stops the stream promptly,
// the delivered prefix is intact, and the error is ctx.Err().
func TestRunCancellation(t *testing.T) {
	g := faultGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	var got []Result
	err := g.Run(ctx, Options{Parallel: 2}, func(res Result) error {
		got = append(got, res)
		if len(got) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) >= len(g.Cells()) {
		t.Fatal("cancellation delivered the full grid")
	}
	for i, res := range got {
		if res.Index != i {
			t.Fatalf("partial delivery is not a prefix: position %d has index %d", i, res.Index)
		}
	}
}

// TestRunEmitError: a consumer error stops the grid and surfaces.
func TestRunEmitError(t *testing.T) {
	sentinel := errors.New("stop")
	calls := 0
	err := loadGrid(t).Run(context.Background(), Options{}, func(Result) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Errorf("emit called %d times after erroring", calls)
	}
}

// TestValidate rejects malformed grids with useful messages.
func TestValidate(t *testing.T) {
	bad := []*Grid{
		{},
		{Instances: testInstances(t), Measure: MeasureLoad},
		{Instances: testInstances(t), Measure: MeasureLoad, Loads: []float64{1.5}},
		{Instances: testInstances(t), Measure: MeasureLoad, Loads: []float64{math.NaN()}},
		{Instances: testInstances(t), Measure: MeasureMotif},
		{Instances: testInstances(t), Measure: MeasureSaturation, OmitIntact: true},
		{Instances: testInstances(t), Measure: MeasureSaturation,
			Faults: []FaultAxis{{Kind: fault.Links, Fraction: 0}}},
		{Instances: testInstances(t), Measure: MeasureLoad, Loads: []float64{0.3},
			Faults: []FaultAxis{{Kind: fault.Links, Fraction: math.NaN()}}},
		{Instances: withConcentration(testInstances(t), 0), Measure: MeasureLoad, Loads: []float64{0.3}},
		{Instances: withConcentration(testInstances(t), -2), Measure: MeasureSaturation},
		{Instances: testInstances(t), Measure: MeasureLoad, Loads: []float64{0.3}, MsgsPerRank: -5},
		{Instances: testInstances(t), Measure: MeasureLoad, Loads: []float64{0.3}, Ranks: -3},
		{Instances: testInstances(t), Measure: MeasureSaturation, Ranks: -3},
		{Instances: testInstances(t), Measure: MeasureLoad, Loads: []float64{0.3},
			Policies: []routing.Policy{routing.Policy(7)}},
		{Instances: testInstances(t), Measure: MeasureSaturation,
			Policies: []routing.Policy{routing.Policy(-1)}},
		{Instances: testInstances(t), Measure: MeasureLoad, Loads: []float64{0.3},
			Faults: []FaultAxis{{Kind: fault.Links, Fraction: 0.1, Trials: -2}}},
		{Instances: testInstances(t), Measure: MeasureLoad, Loads: []float64{0.3},
			Schedules: []ScheduleAxis{{Name: "churn", Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 5, Trials: -1}}},
	}
	for i, g := range bad {
		if err := g.Run(context.Background(), Options{}, func(Result) error { return nil }); err == nil {
			t.Errorf("grid %d validated, want error", i)
		}
	}
}

// TestValidateBitPatternRanks: a bit pattern that drives traffic needs
// a power-of-two Ranks (it masks with Ranks-1), on the Patterns axis or,
// under ShiftPeriod, in ShiftPatterns. Random runs on any rank count,
// labels that drive nothing are not checked, and tenant grids check
// their own specs.
func TestValidateBitPatternRanks(t *testing.T) {
	run := func(g *Grid) error {
		return g.Run(context.Background(), Options{Parallel: 1}, func(Result) error { return nil })
	}
	grid := func() *Grid {
		return &Grid{Instances: testInstances(t)[:1], Measure: MeasureLoad, Loads: []float64{0.3},
			Patterns: []traffic.Pattern{traffic.Random, traffic.BitComplement}, Ranks: 100, MsgsPerRank: 1, Seed: 3}
	}
	if err := run(grid()); err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Errorf("bit-complement on 100 ranks: err %v, want a power-of-two error", err)
	}
	if _, err := grid().ContentKeys(0); err == nil {
		t.Error("ContentKeys accepted bit-complement on 100 ranks")
	}
	shift := grid()
	shift.Patterns = []traffic.Pattern{traffic.Random}
	shift.ShiftPeriod, shift.ShiftPatterns = 500, []traffic.Pattern{traffic.Random, traffic.Transpose}
	if err := run(shift); err == nil {
		t.Error("shifting to transpose on 100 ranks validated")
	}

	random := grid()
	random.Patterns = []traffic.Pattern{traffic.Random}
	if err := run(random); err != nil {
		t.Errorf("random on 100 ranks: %v", err)
	}
	label := grid()
	label.ShiftPeriod, label.ShiftPatterns = 500, []traffic.Pattern{traffic.Random}
	if err := run(label); err != nil {
		t.Errorf("bit-complement as a label under random shifting traffic: %v", err)
	}
	pow2 := grid()
	pow2.Ranks = 128
	if err := run(pow2); err != nil {
		t.Errorf("bit-complement on 128 ranks: %v", err)
	}
}

// withConcentration sets the last instance's concentration to c.
func withConcentration(insts []Instance, c int) []Instance {
	insts[len(insts)-1].Concentration = c
	return insts
}

// TestSharedRunnerMemoizes: two grids on one injected engine reuse the
// memoized intact table (the scale preset's two-phase pattern).
func TestSharedRunnerMemoizes(t *testing.T) {
	insts := testInstances(t)[:1]
	r := runner.New(1)
	sat := &Grid{Instances: insts, Measure: MeasureSaturation, MsgsPerRank: 4, Seed: 7}
	var peak int64
	track := func(b int64) {
		if b > peak {
			peak = b
		}
	}
	if _, err := sat.Collect(context.Background(), Options{Runner: r, OnTableBytes: track}); err != nil {
		t.Fatal(err)
	}
	afterSat := peak
	if afterSat <= 0 {
		t.Fatal("no table bytes observed after the intact grid")
	}
	deg := &Grid{Instances: insts, OmitIntact: true,
		Faults: []FaultAxis{{Kind: fault.Links, Fraction: 0.05}},
		Loads:  []float64{0.3}, Measure: MeasureLoad,
		Ranks: insts[0].Endpoints(), MsgsPerRank: 4, Seed: 7}
	if _, err := deg.Collect(context.Background(), Options{Runner: r, OnTableBytes: track}); err != nil {
		t.Fatal(err)
	}
	// The repair window holds intact + repaired tables: the peak must
	// exceed the single-table footprint of the first grid.
	if peak <= afterSat {
		t.Errorf("repair-window peak %d not above single-table %d", peak, afterSat)
	}
}

// scheduleGrid is a one-instance load grid with a shifting workload;
// scheduleAxes gives it a churn axis and a fixed-schedule axis.
func scheduleGrid(t testing.TB) *Grid {
	g := loadGrid(t)
	g.Instances = g.Instances[:1]
	g.Policies = g.Policies[:1]
	g.Patterns = g.Patterns[:1]
	g.Loads = g.Loads[:1]
	g.ShiftPeriod = 600
	g.ShiftPatterns = []traffic.Pattern{traffic.Random, traffic.Transpose}
	return g
}

func scheduleAxes(t testing.TB, g *Grid) []ScheduleAxis {
	edges := g.Instances[0].Inst.G.Edges()[:4]
	return []ScheduleAxis{
		{Name: "churn", Kind: fault.Links, Fraction: 0.05, Period: 400, Outage: 150, Repeats: 2, Trials: 2},
		{Name: "rewire", Schedule: fault.Schedule{
			{Cycle: 200, Cut: edges},
			{Cycle: 700, Restore: edges},
		}},
	}
}

// TestScheduleCellsOrder pins the enumeration: schedule cells follow
// the instance's intact and fault cells, trial by trial, with the axis
// name stamped and indices contiguous.
func TestScheduleCellsOrder(t *testing.T) {
	g := scheduleGrid(t)
	g.Faults = []FaultAxis{{Kind: fault.Links, Fraction: 0.1}}
	g.Schedules = scheduleAxes(t, g)
	cells := g.Cells()
	perPoint := 1                      // one policy × one pattern × one load
	want := perPoint * (1 + 1 + 2 + 1) // intact + fault trial + churn trials + rewire trial
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
	}
	wantSched := []string{"", "", "churn", "churn", "rewire"}
	wantTrial := []int{0, 0, 0, 1, 0}
	for i, c := range cells {
		if c.Schedule != wantSched[i] || c.Trial != wantTrial[i] {
			t.Errorf("cell %d: schedule %q trial %d, want %q trial %d",
				i, c.Schedule, c.Trial, wantSched[i], wantTrial[i])
		}
	}
	if cells[1].Fault != "links" || cells[2].Fault != "none" {
		t.Errorf("fault labels off: %q then %q", cells[1].Fault, cells[2].Fault)
	}
}

// TestRunScheduleAxis: adding a schedule axis appends its cells without
// perturbing any existing cell (the grid-level empty-schedule
// invariance), results are deterministic across worker counts, and
// reconfiguration cells deliver traffic.
func TestRunScheduleAxis(t *testing.T) {
	base, err := scheduleGrid(t).Collect(context.Background(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Grid {
		g := scheduleGrid(t)
		g.Schedules = scheduleAxes(t, g)
		return g
	}
	serial, err := mk().Collect(context.Background(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := mk().Collect(context.Background(), Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(base)+3 {
		t.Fatalf("got %d results, want %d static + 3 schedule cells", len(serial), len(base))
	}
	if !reflect.DeepEqual(serial[:len(base)], base) {
		t.Error("schedule axis perturbed the static cells")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("schedule grid diverges between worker counts")
	}
	for _, res := range serial[len(base):] {
		if res.Err != nil {
			t.Fatalf("schedule cell %q/%d: %v", res.Schedule, res.Trial, res.Err)
		}
		if res.Schedule == "" {
			t.Fatalf("schedule cell %d missing its axis name", res.Index)
		}
		if res.Stats.Delivered == 0 {
			t.Errorf("schedule cell %q/%d delivered nothing", res.Schedule, res.Trial)
		}
		if res.Stats.Offered != res.Stats.Delivered+res.Stats.Dropped {
			t.Errorf("schedule cell %q/%d: offered %d != delivered %d + dropped %d",
				res.Schedule, res.Trial, res.Stats.Offered, res.Stats.Delivered, res.Stats.Dropped)
		}
	}
	// The churn trials must differ (independent derived seeds) and the
	// churn axis must actually sever traffic in at least one cell.
	churn := serial[len(base) : len(base)+2]
	if reflect.DeepEqual(churn[0].Stats, churn[1].Stats) {
		t.Error("churn trials produced identical stats (seed derivation broken?)")
	}
	if churn[0].Stats.SeveredInFlight+churn[1].Stats.SeveredInFlight == 0 {
		t.Error("link churn severed no in-flight packets across two trials")
	}
}

// TestValidateSchedule rejects malformed schedule and shift axes.
func TestValidateSchedule(t *testing.T) {
	run := func(g *Grid) error {
		return g.Run(context.Background(), Options{}, func(Result) error { return nil })
	}
	g := scheduleGrid(t)
	g.Measure = MeasureSaturation
	g.Loads = nil
	g.ShiftPeriod = 0
	g.ShiftPatterns = nil
	g.Schedules = []ScheduleAxis{{Name: "churn", Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 5}}
	if err := run(g); err == nil {
		t.Error("schedule axis on a saturation grid validated")
	}
	g = scheduleGrid(t)
	g.Schedules = []ScheduleAxis{{Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 5}}
	if err := run(g); err == nil {
		t.Error("unnamed schedule axis validated")
	}
	g = scheduleGrid(t)
	g.Schedules = []ScheduleAxis{
		{Name: "x", Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 5},
		{Name: "x", Kind: fault.Routers, Fraction: 0.1, Period: 10, Outage: 5},
	}
	if err := run(g); err == nil {
		t.Error("duplicate schedule axis names validated")
	}
	g = scheduleGrid(t)
	g.ShiftPatterns = nil
	if err := run(g); err == nil {
		t.Error("ShiftPeriod without ShiftPatterns validated")
	}
	// A bad churn spec is rejected with the axis name.
	g = scheduleGrid(t)
	g.Schedules = []ScheduleAxis{{Name: "bad", Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 20}}
	if err := run(g); err == nil {
		t.Error("unsatisfiable churn timing ran")
	}
}

// TestValidateChurnAxisUpFront: a malformed churn axis fails the whole
// grid before any cell runs — the intact cells ahead of it are not
// simulated and emitted first.
func TestValidateChurnAxisUpFront(t *testing.T) {
	for name, axis := range map[string]ScheduleAxis{
		"bad kind":       {Kind: 7, Fraction: 0.1, Period: 10, Outage: 5},
		"outage>=period": {Kind: fault.Links, Fraction: 0.1, Period: 10, Outage: 10},
		"period 0":       {Kind: fault.Links, Fraction: 0.1, Outage: 5},
		"NaN fraction":   {Kind: fault.Links, Fraction: math.NaN(), Period: 10, Outage: 5},
	} {
		g := scheduleGrid(t)
		axis.Name = "bad"
		g.Schedules = []ScheduleAxis{axis}
		emitted := 0
		err := g.Run(context.Background(), Options{}, func(Result) error { emitted++; return nil })
		if err == nil || emitted != 0 {
			t.Errorf("%s: err %v after %d cells, want an error and no cells", name, err, emitted)
		}
	}
}

// TestCellErrorsIsolated: cells that fail report Result.Err without
// stopping the stream or perturbing any other cell. SF(9) at
// concentration 1 has 162 endpoints, too few for 256 ranks, so every
// one of its cells fails its rank mapping; the LPS(11,7) rows that
// follow (336 endpoints) must equal those of a grid without the
// failing instance. The rank count is a power of two, as the grid's
// bit-shuffle pattern requires.
func TestCellErrorsIsolated(t *testing.T) {
	insts := testInstances(t)
	insts[1].Concentration = 1
	mk := func(insts ...Instance) *Grid {
		g := loadGrid(t)
		g.Instances = insts
		g.Ranks = 256
		return g
	}
	mixed, err := mk(insts[1], insts[0]).Collect(context.Background(), Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := mk(insts[0]).Collect(context.Background(), Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != 2*len(alone) {
		t.Fatalf("got %d results, want %d", len(mixed), 2*len(alone))
	}
	for _, res := range mixed[:len(alone)] {
		if res.Err == nil {
			t.Errorf("cell %d on %s: 256 ranks on 162 endpoints did not fail", res.Index, res.Topology)
		}
	}
	for i, want := range alone {
		got := mixed[len(alone)+i]
		if want.Err != nil || got.Err != nil {
			t.Fatalf("good cell %d failed: %v / %v", i, want.Err, got.Err)
		}
		got.Index, got.Instance = want.Index, want.Instance
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cell %d perturbed by the failing instance:\n got  %+v\n want %+v", i, got, want)
		}
	}
}

// TestIntactTableReleasedPerInstance pins the memory contract of grids
// with a fault axis: an instance's intact table never outlives its
// section of the sweep, whichever of its groups actually ran — so a
// shared engine memoizes at most one instance's intact table, and none
// once the grid is done.
func TestIntactTableReleasedPerInstance(t *testing.T) {
	ctx := context.Background()
	discard := func(Result) error { return nil }
	check := func(name string, r *runner.Runner) {
		t.Helper()
		if b := r.TableBytes(); b != 0 {
			t.Errorf("%s: %d table bytes still memoized after the run", name, b)
		}
	}

	r := runner.New(1)
	if err := faultGrid(t).Run(ctx, Options{Runner: r}, discard); err != nil {
		t.Fatal(err)
	}
	check("cold run", r)

	// Warm only the fault cells: the intact cells then run cold and no
	// fault group touches the engine.
	cache := newMemCache()
	damaged := faultGrid(t)
	damaged.OmitIntact = true
	if err := damaged.Run(ctx, Options{Cache: cache}, discard); err != nil {
		t.Fatal(err)
	}
	r = runner.New(1)
	var peak int64
	opts := Options{Runner: r, Cache: cache, OnTableBytes: func(b int64) { peak = max(peak, b) }}
	if err := faultGrid(t).Run(ctx, opts, discard); err != nil {
		t.Fatal(err)
	}
	check("fault cells warm", r)
	g := faultGrid(t)
	var widest int64
	for _, in := range g.Instances {
		widest = max(widest, routing.NewTable(in.Inst.G).MemoryBytes())
	}
	if peak > widest {
		t.Errorf("fault cells warm: peak %d table bytes, above one instance's intact table (%d)", peak, widest)
	}

	// A range ending inside instance 0's section: its later fault group
	// never runs.
	r = runner.New(1)
	if err := g.RunRange(ctx, Options{Runner: r}, 0, 3, discard); err != nil {
		t.Fatal(err)
	}
	check("RunRange(0,3)", r)
}

// BenchmarkRunRangeTinyCells measures the fixed per-cell cost of the
// sweep core: one 64-cell chunk of a Quick load grid (LPS(11,7) at
// concentration 4, 64 ranks, 2 messages each, 64 loads) through
// RunRange with fresh Options, the way a fabric worker executes each
// claimed range. The 64 ranks fill 64 of the 672 endpoints, the
// workload's senders; the other 608 cost no injection cursor. Run it
// with -benchmem; B/op is dominated by the range's
// engine setup (table, prototype, mapping) and each fresh clone's
// buffers.
func BenchmarkRunRangeTinyCells(b *testing.B) {
	lps, err := topo.LPS(11, 7)
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]float64, 64)
	for i := range loads {
		loads[i] = 0.015 * float64(i+1)
	}
	g := &Grid{
		Instances:   []Instance{{Name: lps.Name, Inst: lps, Concentration: 4}},
		Loads:       loads,
		Measure:     MeasureLoad,
		Ranks:       64,
		MsgsPerRank: 2,
		Seed:        1,
	}
	discard := func(res Result) error { return res.Err }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.RunRange(context.Background(), Options{Parallel: 1}, 0, 64, discard); err != nil {
			b.Fatal(err)
		}
	}
}

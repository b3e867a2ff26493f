package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// instSpec is one topology of a workload: its family (the topo.build_ms
// suffix), endpoint concentration and constructor.
type instSpec struct {
	family string
	conc   int
	build  func() (*topo.Instance, error)
}

var families = []string{"lps", "sf", "bf", "df"}

// paperInstances is the Full §VI-B set (~8.7K endpoints each).
var paperInstances = []instSpec{
	{"lps", 8, func() (*topo.Instance, error) { return topo.LPS(23, 13) }},
	{"sf", 6, func() (*topo.Instance, error) { return topo.SlimFly(27) }},
	{"bf", 6, func() (*topo.Instance, error) { return topo.BundleFly(9, 9) }},
	{"df", 8, func() (*topo.Instance, error) { return topo.DragonFly(16, 8, 69, topo.Circulant) }},
}

// quickInstances is the Quick-class set of the same four families.
var quickInstances = []instSpec{
	{"lps", 4, func() (*topo.Instance, error) { return topo.LPS(11, 7) }},
	{"sf", 4, func() (*topo.Instance, error) { return topo.SlimFly(9) }},
	{"bf", 3, func() (*topo.Instance, error) { return topo.BundleFly(13, 3) }},
	{"df", 4, func() (*topo.Instance, error) { return topo.DragonFly(8, 4, 33, topo.Circulant) }},
}

// rung0Instance is the Table II rung-0 SpectralFly, LPS(13,29): 12,180
// routers, one endpoint each.
var rung0Instance = []instSpec{
	{"lps", 1, topo.TableIIScaleSpecs[0][0].Build},
}

// churnFaults and churnSchedule are the churn-repair damage model; the
// fault layer probe samples the same plans on every workload.
var churnFaults = []sweep.FaultAxis{
	{Kind: fault.Links, Fraction: 0.05, Trials: 3},
	{Kind: fault.Routers, Fraction: 0.05, Trials: 3},
	{Kind: fault.Regions, Fraction: 0.10, RegionSize: 8, Trials: 3},
}

var churnSchedule = sweep.ScheduleAxis{
	Name: "links-churn", Kind: fault.Links, Fraction: 0.02,
	Period: 120, Outage: 80, Repeats: 10, Trials: 1,
}

// Stable identities for every grid the benchmark builds. Cell and plan
// seeds derive from these, so the direct simnet probes can rebuild any
// cell exactly.
func cellKey(c *sweep.Cell) string {
	return fmt.Sprintf("perfbench/cell/%s/%s/%v/%d/%s/%s/%s/%v",
		c.Topology, c.Fault, c.Fraction, c.Trial, c.Schedule, c.Policy, c.Pattern, c.Load)
}

func planKey(topology string, f sweep.FaultAxis, trial int) string {
	return fmt.Sprintf("perfbench/plan/%s/%s/%v/%d", topology, f.Kind, f.Fraction, trial)
}

func scheduleKey(topology string, s sweep.ScheduleAxis, trial int) string {
	return fmt.Sprintf("perfbench/schedule/%s/%s/%d", topology, s.Name, trial)
}

var benchKeys = sweep.Keys{CellKey: cellKey, PlanKey: planKey, ScheduleKey: scheduleKey}

// buildInstances constructs specs, one topo span per instance.
func buildInstances(b *bench, parent int, specs []instSpec) ([]sweep.Instance, error) {
	out := make([]sweep.Instance, 0, len(specs))
	for _, s := range specs {
		var inst *topo.Instance
		var err error
		b.t.do("topo."+s.family, parent, func() { inst, err = s.build() })
		if err != nil {
			return nil, err
		}
		out = append(out, sweep.Instance{Name: inst.Name, Inst: inst, Concentration: s.conc})
	}
	return out, nil
}

// gridWorkload runs one sweep.Grid on a shared runner.Runner whose
// intact tables setup builds, the way a long-lived sweep process does.
type gridWorkload struct {
	specs    []instSpec
	tables   routing.TableOptions
	workers  int // intra-run engine: 1 serial, >= 2 sharded
	parallel int // runner pool size
	shape    func(g *sweep.Grid)
	// warmup runs one tiny cell during setup so the simulator prototype
	// and its memoized KWay shard map exist before the first timed cell.
	warmup bool
	// refill re-memoizes the intact tables after each pass: grids with a
	// fault or schedule axis release them when an instance's section
	// ends, and every pass should start from the same state.
	refill bool

	insts []sweep.Instance
	r     *runner.Runner
	grid  *sweep.Grid
}

func newPaperLoad() workload {
	n := runtime.NumCPU()
	return &gridWorkload{
		specs: paperInstances, workers: 1, parallel: n,
		shape: func(g *sweep.Grid) {
			g.Policies = []routing.Policy{routing.Minimal, routing.UGALL}
			g.Patterns = []traffic.Pattern{traffic.Random, traffic.Transpose}
			g.Loads = []float64{0.2, 0.5, 0.8}
			g.Ranks = 8192
			g.MsgsPerRank = 6
		},
	}
}

func newChurnRepair() workload {
	n := runtime.NumCPU()
	return &gridWorkload{
		specs: paperInstances[:2], workers: 1, parallel: n, refill: true,
		shape: func(g *sweep.Grid) {
			g.Faults = churnFaults
			g.Schedules = []sweep.ScheduleAxis{churnSchedule}
			g.OmitIntact = true
			g.Policies = []routing.Policy{routing.Minimal}
			g.Patterns = []traffic.Pattern{traffic.Random}
			g.Loads = []float64{0.1}
			g.Ranks = 8192
			g.MsgsPerRank = 2
		},
	}
}

func newShard12k() workload {
	return &gridWorkload{
		specs: rung0Instance, workers: max(2, runtime.NumCPU()), parallel: 1, warmup: true,
		tables: routing.TableOptions{Store: routing.StorePacked},
		shape: func(g *sweep.Grid) {
			g.Policies = []routing.Policy{routing.Minimal}
			g.Patterns = []traffic.Pattern{traffic.Random}
			g.Loads = []float64{0.2, 0.4, 0.6}
			g.Ranks = 8192
			g.MsgsPerRank = 12
		},
	}
}

func (w *gridWorkload) freshSetup() bool { return false }

func (w *gridWorkload) opts() sweep.Options {
	return sweep.Options{Runner: w.r, Workers: w.workers}
}

func (w *gridWorkload) setup(b *bench, parent int) error {
	insts, err := buildInstances(b, parent, w.specs)
	if err != nil {
		return err
	}
	r := runner.New(w.parallel)
	r.SetTableOptions(w.tables)
	for _, in := range insts {
		b.t.do("runner.Table", parent, func() { r.Table(in.Inst.G) })
	}
	g := &sweep.Grid{Instances: insts, Measure: sweep.MeasureLoad, Seed: b.gridSeed, Keys: benchKeys}
	w.shape(g)
	w.insts, w.r, w.grid = insts, r, g
	if !w.warmup {
		return nil
	}
	one := *g
	one.Policies, one.Patterns, one.Loads = g.Policies[:1], g.Patterns[:1], g.Loads[:1]
	one.MsgsPerRank = 1
	var rows []sweep.Result
	b.t.do("sweep.Grid.Run", parent, func() { rows, err = one.Collect(context.Background(), w.opts()) })
	checkRows(b, rows)
	return err
}

func (w *gridWorkload) pass(b *bench, parent int) (float64, []sweep.Result, error) {
	id := b.t.start("sweep.Grid.Run", parent)
	t0 := time.Now()
	rows, err := w.grid.Collect(context.Background(), w.opts())
	wall := time.Since(t0).Seconds()
	b.t.end(id)
	if w.refill {
		for _, in := range w.insts {
			w.r.Table(in.Inst.G)
		}
	}
	return wall, rows, err
}

func (w *gridWorkload) warm(b *bench, rows []sweep.Result) (float64, error) {
	return cacheReplay(b, w.grid, w.opts(), rows)
}

func (w *gridWorkload) panel(b *bench, rows []sweep.Result) error {
	p1 := w.opts()
	if w.parallel > 1 {
		// Same tables, one cell at a time.
		r := runner.New(1)
		r.SetTableOptions(w.tables)
		for _, in := range w.insts {
			r.RegisterTable(in.Inst.G, w.r.Table(in.Inst.G))
		}
		p1.Runner = r
	}
	return runPanel(b, panelInput{
		specs: w.specs, grid: w.grid, p1: p1, rows: rows, tableSrc: p1.Runner,
		fabricWorkers: max(1, b.nproc/max(1, w.workers)),
	})
}

// warmReplayMin is the least time the warm replays of one run take
// together; warm_s is their median.
const warmReplayMin = time.Second

// cacheReplay stores the cold pass's results in a fresh on-disk cache
// under the grid's content keys, then replays the grid against it
// until warmReplayMin has passed (at least five times). Every replay
// must simulate nothing and reproduce the cold rows byte for byte.
func cacheReplay(b *bench, g *sweep.Grid, opts sweep.Options, rows []sweep.Result) (float64, error) {
	dir, err := os.MkdirTemp(outDir, "warm-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	c, err := service.OpenCache(dir)
	if err != nil {
		return 0, err
	}
	var keys []string
	b.t.do("sweep.Grid.ContentKeys", 0, func() { keys, err = g.ContentKeys(opts.Workers) })
	if err != nil {
		return 0, err
	}
	tc := &tracedCache{t: b.t, c: c}
	for i, r := range rows {
		payload, err := encodePayload(b, r, 0)
		if err != nil {
			return 0, err
		}
		p, err := decodePayload(b, payload, 0)
		b.expect(err == nil && p.Stats.Equal(r.Stats), "cell %d: payload does not round-trip", r.Index)
		tc.Put(keys[i], payload)
	}
	want := resultBytes(rows)
	var times []float64
	start := time.Now()
	for k := 0; k < 5 || time.Since(start) < warmReplayMin; k++ {
		id := b.t.start("sweep.Grid.Run[warm]", 0)
		tc.parent = id
		opts.Cache = tc
		t0 := time.Now()
		got, err := g.Collect(context.Background(), opts)
		times = append(times, time.Since(t0).Seconds())
		b.t.end(id)
		if err != nil {
			return 0, err
		}
		b.expect(bytes.Equal(resultBytes(got), want), "warm replay %d differs from the cold pass", k)
	}
	st := c.Stats()
	b.expect(st.Misses == 0, "warm replays missed the cache %d times", st.Misses)
	b.samples["warm_s"] = times
	return median(times), nil
}

func encodePayload(b *bench, r sweep.Result, parent int) ([]byte, error) {
	id := b.t.start("sweep.EncodePayload", parent)
	defer b.t.end(id)
	return sweep.EncodePayload(r)
}

func decodePayload(b *bench, payload []byte, parent int) (sweep.Payload, error) {
	id := b.t.start("sweep.DecodePayload", parent)
	defer b.t.end(id)
	return sweep.DecodePayload(payload)
}

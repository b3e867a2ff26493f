// Package sweep is the declarative experiment core: it turns a
// cross-product grid specification — topology instances × fault plans ×
// routing policies × traffic patterns/motifs × offered loads — into a
// deterministic plan of cell groups, runs every cell as a simulation
// on a clone of the shared engine's memoized simulator prototype
// (internal/runner supplies the memo and the ordered fan-out), and
// streams one Result per cell, in cell order, to the caller.
//
// Every experiment driver in internal/exp and the public
// spectralfly.Sweep API are thin presets over this package: they
// declare axes, supply a key scheme (the stable cell identities that
// per-cell seeds derive from), and reduce the streamed results into
// their exhibit's rows. Because seeds derive from cell identity and
// results are delivered in cell order, a grid's output is
// bit-identical for every worker count.
//
// Grids with a fault axis follow the performance-under-failure
// lifecycle of the resilience study: per (instance, fault axis), the
// sampled plans are applied, the instance's intact routing table is
// repaired incrementally (never rebuilt) and registered with the
// engine, the damaged cells run, and the damaged tables are released —
// so peak memory holds one fault group at a time, not the whole sweep.
package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Instance is one topology axis entry: a built instance plus its
// endpoint concentration.
type Instance struct {
	Name          string
	Inst          *topo.Instance
	Concentration int
}

// Endpoints returns the simulated endpoint count of the instance.
func (i Instance) Endpoints() int { return i.Inst.G.N() * i.Concentration }

// Measure selects what every cell of a grid measures.
type Measure int

const (
	// MeasureLoad runs one open-loop offered-load point per cell
	// (patterns × loads axes apply).
	MeasureLoad Measure = iota
	// MeasureMotif runs one Ember-motif schedule per cell (motif axis
	// applies).
	MeasureMotif
	// MeasureSaturation bisects for the saturation knee (one cell per
	// instance/fault point; pattern, load and policy axes are unused).
	MeasureSaturation
)

func (m Measure) String() string {
	switch m {
	case MeasureLoad:
		return "load"
	case MeasureMotif:
		return "motif"
	case MeasureSaturation:
		return "saturation"
	}
	return fmt.Sprintf("measure(%d)", int(m))
}

// FaultAxis is one damage model on the fault axis: a (kind, fraction)
// pair sampled Trials times into independent deterministic plans.
type FaultAxis struct {
	Kind       fault.Kind
	Fraction   float64
	RegionSize int // chassis size for region plans; <= 0 defaults to 8
	Trials     int // independent plans; <= 0 defaults to 1
}

func (f FaultAxis) trials() int {
	if f.Trials <= 0 {
		return 1
	}
	return f.Trials
}

// ScheduleAxis is one live-reconfiguration model on the schedule axis:
// cells run with a timed topology-event schedule (fault.Schedule)
// applied mid-run on the intact instance. By default the schedule is a
// churn pattern sampled per trial (the ChurnSpec fields below); Make
// overrides the sampler entirely — e.g. a planned fault.Rewiring
// sequence — receiving the instance graph and the trial's derived seed.
type ScheduleAxis struct {
	// Name identifies the axis entry in cells and keys (required).
	Name string
	// ChurnSpec sampling parameters, used when Make is nil.
	Kind       fault.Kind
	Fraction   float64
	RegionSize int
	Period     int64
	Outage     int64
	Repeats    int
	// Trials samples independent schedules; <= 0 defaults to 1.
	Trials int
	// Make overrides the churn sampler.
	Make func(g *graph.Graph, seed int64) (fault.Schedule, error)
}

func (s ScheduleAxis) trials() int {
	if s.Trials <= 0 {
		return 1
	}
	return s.Trials
}

func (s ScheduleAxis) sample(g *graph.Graph, seed int64) (fault.Schedule, error) {
	if s.Make != nil {
		return s.Make(g, seed)
	}
	return fault.ChurnSpec{
		Kind:       s.Kind,
		Fraction:   s.Fraction,
		RegionSize: s.RegionSize,
		Period:     s.Period,
		Outage:     s.Outage,
		Repeats:    s.Repeats,
		Seed:       seed,
	}.Schedule(g)
}

// Cell is one point of the expanded grid. Fault is "none" on intact
// cells (Fraction 0, Trial 0); on damaged cells it names the
// fault.Kind.
type Cell struct {
	Index    int
	Topology string
	Instance int // index into Grid.Instances
	Fault    string
	Fraction float64
	Trial    int
	// Schedule names the ScheduleAxis entry of a reconfiguration cell
	// (empty on static cells, so static grids' JSON is unchanged).
	Schedule string `json:",omitempty"`
	Policy   routing.Policy
	Pattern  traffic.Pattern
	Motif    traffic.Motif `json:"-"`
	MotifTag string        `json:",omitempty"` // Motif.Name() on motif cells
	Load     float64
}

// Result pairs a cell with its measurement. Err reports a per-cell
// failure; the stream continues past it.
type Result struct {
	Cell
	Stats      simnet.Stats
	Saturation float64
	Err        error
}

// Keys customizes the stable identities of a grid. CellKey feeds the
// per-cell seed derivation and the cells' error messages; PlanKey seeds
// the fault-plan sampling. Nil funcs select the canonical formats
// below, which the public sweep API uses; the exp presets install
// their historical formats so golden outputs are preserved.
type Keys struct {
	CellKey     func(*Cell) string
	PlanKey     func(topology string, f FaultAxis, trial int) string
	ScheduleKey func(topology string, s ScheduleAxis, trial int) string
}

func (k Keys) cellKey(c *Cell) string {
	if k.CellKey != nil {
		return k.CellKey(c)
	}
	switch {
	case c.Schedule != "":
		return fmt.Sprintf("sweep/%s/reconfig/%s/%d/%s/%s/%v",
			c.Topology, c.Schedule, c.Trial, c.Policy, c.Pattern, c.Load)
	case c.Motif != nil:
		return fmt.Sprintf("sweep/%s/%s/%v/%d/%s/motif/%s",
			c.Topology, c.Fault, c.Fraction, c.Trial, c.Policy, c.Motif.Name())
	case c.Load > 0:
		return fmt.Sprintf("sweep/%s/%s/%v/%d/%s/%s/%v",
			c.Topology, c.Fault, c.Fraction, c.Trial, c.Policy, c.Pattern, c.Load)
	}
	return fmt.Sprintf("sweep/%s/%s/%v/%d/saturation",
		c.Topology, c.Fault, c.Fraction, c.Trial)
}

func (k Keys) planKey(topology string, f FaultAxis, trial int) string {
	if k.PlanKey != nil {
		return k.PlanKey(topology, f, trial)
	}
	return fmt.Sprintf("sweep/plan/%s/%s/%v/%d", topology, f.Kind, f.Fraction, trial)
}

func (k Keys) scheduleKey(topology string, s ScheduleAxis, trial int) string {
	if k.ScheduleKey != nil {
		return k.ScheduleKey(topology, s, trial)
	}
	return fmt.Sprintf("sweep/schedule/%s/%s/%d", topology, s.Name, trial)
}

// Grid is a declarative cross-product experiment: instances × faults ×
// policies × (patterns × loads | motifs). The zero values of the
// optional axes mean "single default entry" (see axes); Measure
// selects which axes are live.
type Grid struct {
	Instances []Instance
	// Faults adds damaged copies of every instance to the grid; empty
	// means intact only. Fractions must be positive — an intact
	// baseline is expressed by OmitIntact = false, not fraction 0.
	Faults []FaultAxis
	// Schedules adds live-reconfiguration copies of every instance: the
	// intact topology run under a timed topology-event schedule
	// (MeasureLoad grids only). Schedule cells run after the instance's
	// fault groups, one group per axis entry.
	Schedules []ScheduleAxis
	// OmitIntact drops the intact cells, leaving only the fault axis
	// (used when the intact baseline was measured by a previous grid on
	// the same engine).
	OmitIntact bool
	Policies   []routing.Policy
	Patterns   []traffic.Pattern
	Motifs     []traffic.Motif
	Loads      []float64
	Measure    Measure

	// Ranks is the MPI job size of Load and Motif cells (mapped onto
	// endpoints with Seed). MsgsPerRank is the message count per rank
	// on Load cells, or per endpoint for the uniform traffic of
	// saturation cells.
	Ranks       int
	MsgsPerRank int
	// ShiftPeriod and ShiftPatterns make every Load cell's workload
	// time-varying (simnet's RunLoadTimed): the traffic rotates through
	// ShiftPatterns every ShiftPeriod cycles, and the Patterns axis'
	// value is ignored by the simulation (it still labels cells). Zero
	// means the usual static patterns.
	ShiftPeriod   int64
	ShiftPatterns []traffic.Pattern
	// LatencyFactor and Tol parameterize saturation cells.
	LatencyFactor float64
	Tol           float64
	// Layout, when its Mode is set, runs every cell with a per-port
	// wire-latency table derived from a machine-room placement of its
	// instance (see the Layout type); the zero value keeps the uniform
	// wire model and byte-identical historical outputs.
	Layout Layout
	// Tenants, when its spec list is nonempty, replaces every Load
	// cell's single mapped workload with a multi-tenant one: the specs
	// are placed on disjoint endpoint sets per instance
	// (traffic.Tenants.Place) and zero-load specs draw their load from
	// the cell's Loads-axis value. Tenant cells carry per-tenant
	// accounting in Stats.Tenants; Ranks/MappingSeed are unused by them.
	Tenants traffic.Tenants

	// Seed is the base seed: rank→endpoint mappings use it directly;
	// cells and fault plans derive theirs from it via their keys.
	Seed int64
	// Keys overrides the stable identity formats.
	Keys Keys
	// SeedOf overrides the per-cell simulation seed (default:
	// runner.DeriveSeed(Seed, key)). The Fig8 preset pins both policy
	// legs to the same seed so the ratio isolates the routing effect.
	SeedOf func(c *Cell, key string) int64
}

// Options tunes one execution of a Grid.
type Options struct {
	// Parallel sizes the worker pool (0 = GOMAXPROCS, 1 = serial);
	// results are bit-identical for every value.
	Parallel int
	// Workers is each cell's simulator shard count (simnet
	// Config.Workers), a speed knob only: statistics, content keys and
	// output are identical for every value. When Workers >= 2 and
	// Parallel is 0, the cell pool is sized GOMAXPROCS / Workers (at
	// least 1) so cells × shards never oversubscribe the machine.
	Workers int
	// Tables selects the routing-table storage backend for tables the
	// engine builds.
	Tables routing.TableOptions
	// Runner injects a shared engine (so consecutive grids reuse
	// memoized tables); nil builds a fresh one (see Engine), in which
	// case Tables/Parallel are only consulted there.
	Runner *runner.Runner
	// OnTableBytes, when set, is called with the engine's current
	// routing-table footprint at every batch and repair boundary; scale
	// sweeps track their peak memory with it.
	OnTableBytes func(bytes int64)
	// OnSimBytes, when set, observes Stats.MemoryBytes of every
	// completed simulation cell — the run loop's peak working set
	// (event scheduler + packet arena + latency digest + port state).
	// Saturation cells report nothing (their Stats are empty); scale
	// sweeps track the peak simulator footprint with it. Cells replayed
	// from the cache report their recorded footprint, so a warm run's
	// observations match a cold one's.
	OnSimBytes func(bytes int64)
	// Cache, when set, short-circuits every cell whose content key
	// (Grid.ContentKeys) is already stored and stores each newly
	// computed cell before it is emitted — so an interrupted run keeps
	// its completed cells. A group whose selected cells all hit skips
	// its fault-plan sampling and table repair entirely: a fully warm
	// grid runs zero simulations and builds zero tables. Failed cells
	// (Result.Err != nil) are never cached. Grids with opaque schedule
	// Make funcs reject caching (see ContentKeys).
	Cache CellCache
}

// Engine returns the engine a run executes on: o.Runner when set,
// otherwise a fresh one with the Tables backend whose pool is
// Parallel — or, when Workers >= 2 and Parallel is 0, GOMAXPROCS /
// Workers cells (at least 1), splitting the machine between cell-level
// and intra-run parallelism rather than oversubscribing it.
func (o Options) Engine() *runner.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	pool := o.Parallel
	if pool == 0 && o.Workers > 1 {
		pool = max(1, runtime.GOMAXPROCS(0)/o.Workers)
	}
	r := runner.New(pool)
	r.SetTableOptions(o.Tables)
	return r
}

// axes returns the live axes with absent optional axes collapsed to a
// single neutral entry, so the cross product is well defined.
func (g *Grid) axes() (pols []routing.Policy, pats []traffic.Pattern, motifs []traffic.Motif, loads []float64) {
	pols = g.Policies
	if len(pols) == 0 {
		pols = []routing.Policy{routing.Minimal}
	}
	pats = g.Patterns
	if len(pats) == 0 {
		pats = []traffic.Pattern{traffic.Random}
	}
	motifs = g.Motifs
	loads = g.Loads
	switch g.Measure {
	case MeasureMotif:
		pats = pats[:1]
		loads = []float64{0}
	case MeasureSaturation:
		pols = pols[:1]
		pats = pats[:1]
		loads = []float64{0}
	}
	return pols, pats, motifs, loads
}

// validate rejects grids whose live axes are empty or whose fault axis
// is malformed.
func (g *Grid) validate() error {
	if len(g.Instances) == 0 {
		return fmt.Errorf("sweep: grid has no instances")
	}
	for i, inst := range g.Instances {
		if inst.Inst == nil || inst.Inst.G == nil {
			return fmt.Errorf("sweep: instance %d (%s) has no graph", i, inst.Name)
		}
	}
	switch g.Measure {
	case MeasureLoad:
		if len(g.Loads) == 0 {
			return fmt.Errorf("sweep: load grid needs a Loads axis")
		}
		for _, l := range g.Loads {
			if l <= 0 || l > 1 {
				return fmt.Errorf("sweep: offered load %v out of (0,1]", l)
			}
		}
	case MeasureMotif:
		if len(g.Motifs) == 0 {
			return fmt.Errorf("sweep: motif grid needs a Motifs axis")
		}
	case MeasureSaturation:
		// No extra axes.
	default:
		return fmt.Errorf("sweep: unknown measure %d", int(g.Measure))
	}
	if g.OmitIntact && len(g.Faults) == 0 && len(g.Schedules) == 0 {
		return fmt.Errorf("sweep: OmitIntact with no fault or schedule axis leaves an empty grid")
	}
	for _, f := range g.Faults {
		if f.Fraction <= 0 || f.Fraction > 1 {
			return fmt.Errorf("sweep: fault fraction %v out of (0,1] (an intact baseline is the OmitIntact=false cells' job)", f.Fraction)
		}
	}
	if len(g.Schedules) > 0 && g.Measure != MeasureLoad {
		return fmt.Errorf("sweep: schedule axis requires MeasureLoad (motif runs have no global clock; saturation would replay the schedule per probe)")
	}
	seen := make(map[string]bool, len(g.Schedules))
	for i, s := range g.Schedules {
		if s.Name == "" {
			return fmt.Errorf("sweep: schedule axis entry %d needs a Name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("sweep: duplicate schedule axis name %q", s.Name)
		}
		seen[s.Name] = true
	}
	if g.ShiftPeriod > 0 {
		if g.Measure != MeasureLoad {
			return fmt.Errorf("sweep: ShiftPeriod requires MeasureLoad")
		}
		if len(g.ShiftPatterns) == 0 {
			return fmt.Errorf("sweep: ShiftPeriod needs a ShiftPatterns rotation")
		}
	}
	if g.Layout.enabled() {
		switch g.Layout.Mode {
		case "qap", "faq", "sequential":
		default:
			return fmt.Errorf("sweep: unknown layout mode %q (want qap, faq or sequential)", g.Layout.Mode)
		}
	}
	if len(g.Tenants.Specs) > 0 {
		if g.Measure != MeasureLoad {
			return fmt.Errorf("sweep: tenant axis requires MeasureLoad")
		}
		if g.ShiftPeriod > 0 {
			return fmt.Errorf("sweep: tenants and shifting traffic are mutually exclusive")
		}
	}
	return nil
}

// pointCells appends the measurement cells of one (instance, fault
// point) to cells: policy → pattern/motif → load, in deterministic
// order. The group plan stamps their indices.
func (g *Grid) pointCells(cells []Cell, ii int, faultName string, fraction float64, trial int) []Cell {
	pols, pats, motifs, loads := g.axes()
	add := func(c Cell) {
		c.Topology = g.Instances[ii].Name
		c.Instance = ii
		c.Fault = faultName
		c.Fraction = fraction
		c.Trial = trial
		cells = append(cells, c)
	}
	switch g.Measure {
	case MeasureSaturation:
		add(Cell{})
	case MeasureMotif:
		for _, pol := range pols {
			for _, m := range motifs {
				add(Cell{Policy: pol, Motif: m, MotifTag: m.Name()})
			}
		}
	default: // MeasureLoad
		for _, pol := range pols {
			for _, pat := range pats {
				for _, load := range loads {
					add(Cell{Policy: pol, Pattern: pat, Load: load})
				}
			}
		}
	}
	return cells
}

// group is one batch of cells that share an execution context: an
// instance's intact cells (fault and sched nil), one fault axis
// entry's damaged cells across its trials, or one schedule axis
// entry's reconfiguration cells across its trials. inst is the
// instance index, or -1 for the single all-instances batch of a grid
// without fault or schedule axes.
type group struct {
	inst   int
	fault  *FaultAxis
	sched  *ScheduleAxis
	trials int
	cells  []Cell
}

// groups returns the grid's execution plan — the one enumeration that
// Cells, ContentKeys and Run all walk — and every cell in plan order
// (each group's cells are a window of it). Without fault or schedule axes
// the whole grid is one batch: every cell is independent, so
// cross-instance parallelism is free. Otherwise groups interleave per
// instance — intact cells first, then each fault axis entry's damaged
// cells trial by trial, then each schedule axis entry's
// reconfiguration cells — so an instance's routing tables live only
// for its own section of the sweep (the per-instance memory lifecycle
// Run documents).
func (g *Grid) groups() (plan []group, all []Cell) {
	add := func(gr group, faultName string, fraction float64) {
		start := len(all)
		for trial := 0; trial < gr.trials; trial++ {
			all = g.pointCells(all, gr.inst, faultName, fraction, trial)
		}
		for i := start; i < len(all); i++ {
			all[i].Index = i
			if gr.sched != nil {
				all[i].Schedule = gr.sched.Name
			}
		}
		gr.cells = all[start:len(all):len(all)]
		plan = append(plan, gr)
	}
	for ii := range g.Instances {
		if !g.OmitIntact {
			add(group{inst: ii, trials: 1}, "none", 0)
		}
		for fi := range g.Faults {
			f := &g.Faults[fi]
			add(group{inst: ii, fault: f, trials: f.trials()}, f.Kind.String(), f.Fraction)
		}
		for si := range g.Schedules {
			s := &g.Schedules[si]
			add(group{inst: ii, sched: s, trials: s.trials()}, "none", 0)
		}
	}
	if len(g.Faults) == 0 && len(g.Schedules) == 0 {
		return []group{{inst: -1, trials: 1, cells: all}}, all
	}
	// Re-slice the windows from the final array, so the plan does not
	// pin the arrays append outgrew.
	lo := 0
	for i := range plan {
		hi := lo + len(plan[i].cells)
		plan[i].cells = all[lo:hi:hi]
		lo = hi
	}
	return plan, all
}

// Cells returns the full expanded grid in execution order (see
// groups). Result delivery follows exactly this order.
func (g *Grid) Cells() []Cell {
	_, all := g.groups()
	return all
}

// seedOf resolves the simulation seed of a cell.
func (g *Grid) seedOf(c *Cell, key string) int64 {
	if g.SeedOf != nil {
		return g.SeedOf(c, key)
	}
	return runner.DeriveSeed(g.Seed, key)
}

// planSeed and schedSeed derive a group trial's fault-plan and
// schedule sampling seeds from their stable keys.
func (g *Grid) planSeed(ii int, f *FaultAxis, trial int) int64 {
	return runner.DeriveSeed(g.Seed, g.Keys.planKey(g.Instances[ii].Name, *f, trial))
}

func (g *Grid) schedSeed(ii int, s *ScheduleAxis, trial int) int64 {
	return runner.DeriveSeed(g.Seed, g.Keys.scheduleKey(g.Instances[ii].Name, *s, trial))
}

// point is the execution context a group gives its cells: the graph
// they run on (intact, or damaged with its dead routers), the timed
// schedule of a reconfiguration trial, and the artifacts the Layout
// and Tenants axes derive for that graph.
type point struct {
	g       *graph.Graph
	dead    []bool
	sched   fault.Schedule
	lats    *simnet.LinkLatencies
	tenants *traffic.Assignment
}

// task is one cell due for simulation, with its execution context and
// identity resolved on the goroutine driving the run (the deriver and
// the Keys and SeedOf funcs need not be safe for concurrent use), and
// the measurement the worker that runs it writes back.
type task struct {
	c    *Cell
	pt   point
	key  string
	seed int64

	stats simnet.Stats
	sat   float64
	err   error
}

// measure runs one cell on a private clone of the engine's simulator
// prototype for the cell's graph, per the grid's measure. validate has
// already pinned the grid-level invariants (load range, shifting
// traffic and tenants on Load grids only, schedules on Load grids
// only), so only the simulator and the workload can fail here.
func (g *Grid) measure(r *runner.Runner, t *task, workers int) (st simnet.Stats, sat float64, err error) {
	c, pt := t.c, &t.pt
	nw, err := r.Network(pt.g, g.Instances[c.Instance].Concentration)
	if err != nil {
		return st, 0, err
	}
	nw.SetPolicy(c.Policy)
	nw.SetSeed(t.seed)
	nw.SetWorkers(workers)
	nw.SetDeadRouters(pt.dead)
	if err := nw.SetSchedule(pt.sched); err != nil {
		return st, 0, err
	}
	if err := nw.SetLinkLatencies(pt.lats); err != nil {
		return st, 0, err
	}
	switch g.Measure {
	case MeasureSaturation:
		nep := nw.Endpoints()
		uniform := func(_ int, rng *rand.Rand) int { return rng.Intn(nep) }
		return st, nw.SaturationLoad(uniform, g.MsgsPerRank, g.LatencyFactor, g.Tol), nil
	case MeasureMotif:
		if err := traffic.Validate(c.Motif, g.Ranks); err != nil {
			return st, 0, err
		}
		mp, err := r.Mapping(g.Ranks, nw.Endpoints(), g.Seed)
		if err != nil {
			return st, 0, err
		}
		st, err = nw.RunBatches(traffic.MapRounds(c.Motif, mp))
		return st, 0, err
	}
	if pt.tenants != nil {
		tc, err := pt.tenants.Config(c.Load)
		if err == nil {
			err = nw.SetTenants(tc)
		}
		if err != nil {
			return st, 0, err
		}
		return nw.RunLoad(pt.tenants.Pattern(), c.Load, g.MsgsPerRank), 0, nil
	}
	mp, err := r.Mapping(g.Ranks, nw.Endpoints(), g.Seed)
	if err != nil {
		return st, 0, err
	}
	if g.ShiftPeriod > 0 {
		funcs := make([]simnet.PatternFunc, len(g.ShiftPatterns))
		for i, p := range g.ShiftPatterns {
			funcs[i] = mp.PatternEndpoints(p, g.Ranks)
		}
		return nw.RunLoadTimed(func(srcEP int, now int64, rng *rand.Rand) int {
			return funcs[int(now/g.ShiftPeriod)%len(funcs)](srcEP, rng)
		}, c.Load, g.MsgsPerRank), 0, nil
	}
	return nw.RunLoad(mp.PatternEndpoints(c.Pattern, g.Ranks), c.Load, g.MsgsPerRank), 0, nil
}

// Run executes the grid and streams one Result per cell, in the order
// of Cells(), to emit. The stream stops early when ctx is cancelled
// (returning ctx.Err(); cells already delivered stay delivered) or
// when emit returns an error. Per-cell failures ride in Result.Err and
// do not stop the stream.
func (g *Grid) Run(ctx context.Context, opts Options, emit func(Result) error) error {
	return g.run(ctx, opts, 0, -1, emit)
}

// RunRange executes only the cells with Index in [lo, hi), streaming
// their Results in cell order — the distributed worker's unit of
// execution. Groups with no cell in range are skipped entirely: no
// fault-plan sampling, no table repair. hi < 0 means the end of the
// grid. Results are bit-identical to the same cells' Results from a
// full Run, for every range partition.
func (g *Grid) RunRange(ctx context.Context, opts Options, lo, hi int, emit func(Result) error) error {
	return g.run(ctx, opts, lo, hi, emit)
}

// pending is one group's cells in range, split into cache hits
// (emitted in place) and misses (simulated).
type pending struct {
	gr     *group
	sel    []Cell
	cached []*Payload
	misses []int // positions in sel
}

func (g *Grid) run(ctx context.Context, opts Options, lo, hi int, emit func(Result) error) error {
	if err := g.validate(); err != nil {
		return err
	}
	d := g.deriver()
	var keys []string
	if opts.Cache != nil {
		var err error
		if keys, err = g.contentKeys(d); err != nil {
			return err
		}
	}
	r := opts.Engine()
	probe := func() {
		if opts.OnTableBytes != nil {
			opts.OnTableBytes(r.TableBytes())
		}
	}

	// resolve selects a group's cells in range — a window, since a
	// group's indices are contiguous — and looks them up in the cache; a
	// corrupt or undecodable entry just demotes to a miss.
	resolve := func(gr *group) pending {
		n := len(gr.cells)
		from, to := 0, n
		if n > 0 {
			first := gr.cells[0].Index
			from = min(max(lo-first, 0), n)
			if hi >= 0 {
				to = min(max(hi-first, from), n)
			}
		}
		p := pending{gr: gr, sel: gr.cells[from:to]}
		p.cached = make([]*Payload, len(p.sel))
		for i, c := range p.sel {
			if opts.Cache != nil {
				if b, ok := opts.Cache.Get(keys[c.Index]); ok {
					if pl, err := DecodePayload(b); err == nil {
						p.cached[i] = &pl
						continue
					}
				}
			}
			p.misses = append(p.misses, i)
		}
		return p
	}

	// prepare resolves the per-trial execution contexts of a fault or
	// schedule group. A fault trial samples its plan and repairs the
	// intact table incrementally for it — never a full rebuild —
	// registering the repaired table with the engine; a schedule trial
	// samples its timed schedule for the intact graph. Like fault plans,
	// a schedule is a pure value of (axis, instance, trial), so the
	// grid's output is bit-identical for every worker count. The points
	// built so far are returned even on error, so the caller can release
	// their tables.
	prepare := func(gr *group) ([]point, error) {
		inst := g.Instances[gr.inst]
		pts := make([]point, 0, gr.trials)
		for trial := 0; trial < gr.trials; trial++ {
			pt := point{g: inst.Inst.G}
			if f := gr.fault; f != nil {
				out := fault.Plan{
					Kind:       f.Kind,
					Fraction:   f.Fraction,
					RegionSize: f.RegionSize,
					Seed:       g.planSeed(gr.inst, f, trial),
				}.Apply(inst.Inst.G)
				repaired := r.Table(inst.Inst.G).Repair(out.Removed)
				r.RegisterTable(repaired.G, repaired)
				pt = point{g: repaired.G, dead: out.DeadRouters}
			} else {
				sched, err := gr.sched.sample(inst.Inst.G, g.schedSeed(gr.inst, gr.sched, trial))
				if err != nil {
					return pts, fmt.Errorf("sweep: schedule axis %q on %s: %w", gr.sched.Name, inst.Name, err)
				}
				pt.sched = sched
			}
			pts = append(pts, pt)
			if err := d.resolve(gr.inst, &pts[trial]); err != nil {
				return pts, err
			}
		}
		return pts, nil
	}

	// execute emits a group's cells in range in cell order: hits from
	// the cache, misses through the engine's ordered fan-out. pointOf
	// supplies a miss's execution context.
	execute := func(p *pending, pointOf func(c *Cell) (point, error)) error {
		emitAt := 0
		flushHits := func(upto int) error {
			for ; emitAt < upto; emitAt++ {
				pl := p.cached[emitAt]
				out := Result{Cell: p.sel[emitAt], Stats: pl.Stats, Saturation: pl.Saturation}
				if opts.OnSimBytes != nil && out.Stats.MemoryBytes > 0 {
					opts.OnSimBytes(out.Stats.MemoryBytes)
				}
				if err := emit(out); err != nil {
					return err
				}
			}
			return nil
		}
		// Each miss's context and identity resolve here, before the
		// fan-out; the tasks then carry the measurements back.
		tasks := make([]task, len(p.misses))
		for k, i := range p.misses {
			c := &p.sel[i]
			pt, err := pointOf(c)
			if err != nil {
				return err
			}
			key := g.Keys.cellKey(c)
			tasks[k] = task{c: c, pt: pt, key: key, seed: g.seedOf(c, key)}
		}
		err := r.RunStream(ctx, len(p.misses), func(k int) {
			t := &tasks[k]
			t.stats, t.sat, t.err = g.measure(r, t, opts.Workers)
		}, func(k int) error {
			i, t := p.misses[k], &tasks[k]
			if err := flushHits(i); err != nil {
				return err
			}
			out := Result{Cell: *t.c, Stats: t.stats, Saturation: t.sat}
			if t.err != nil {
				out.Err = fmt.Errorf("sweep: cell %q: %w", t.key, t.err)
			}
			if opts.OnSimBytes != nil && out.Err == nil && out.Stats.MemoryBytes > 0 {
				opts.OnSimBytes(out.Stats.MemoryBytes)
			}
			// Store before emitting, so a run killed mid-emit still keeps
			// the cell for its resume.
			if opts.Cache != nil && out.Err == nil {
				if b, err := EncodePayload(out); err == nil {
					opts.Cache.Put(keys[out.Index], b)
				}
			}
			emitAt = i + 1
			return emit(out)
		})
		if err != nil {
			return err
		}
		return flushHits(len(p.sel))
	}
	intact := func(c *Cell) (point, error) {
		pt := point{g: g.Instances[c.Instance].Inst.G}
		return pt, d.resolve(c.Instance, &pt)
	}

	// Sections run one at a time: the all-instances batch, or one
	// instance's groups — so at any moment the engine memoizes at most
	// one instance's intact table plus one group's damaged tables.
	plan, _ := g.groups()
	for start := 0; start < len(plan); {
		end := start + 1
		for end < len(plan) && plan[end].inst == plan[start].inst {
			end++
		}
		section := make([]pending, end-start)
		last := -1 // the section's last group that needs the engine
		for k := range section {
			if section[k] = resolve(&plan[start+k]); len(section[k].misses) > 0 {
				last = k
			}
		}
		for k := range section {
			p := &section[k]
			if err := ctx.Err(); err != nil {
				return err
			}
			if len(p.misses) == 0 {
				if err := execute(p, nil); err != nil {
					return err
				}
				continue
			}
			if p.gr.fault == nil && p.gr.sched == nil {
				if err := execute(p, intact); err != nil {
					return err
				}
				probe()
				continue
			}
			pts, err := prepare(p.gr)
			if err == nil {
				if p.gr.fault != nil {
					// The repair window — intact and repaired tables briefly
					// memoized together — is where table memory peaks.
					probe()
					if k == last {
						// The intact table has served its purpose (intact cells,
						// repair source): drop it before the last group's cells
						// run so only the damaged tables stay memoized.
						r.Release(g.Instances[p.gr.inst].Inst.G)
					}
				}
				err = execute(p, func(c *Cell) (point, error) { return pts[c.Trial], nil })
			}
			if p.gr.fault != nil {
				// Each trial's table and simulator prototype are only
				// reachable through the engine's memo: release them as soon
				// as the group's cells are done, so peak memory holds one
				// fault group, not the whole sweep.
				for _, pt := range pts {
					r.Release(pt.g)
				}
			}
			if err != nil {
				return err
			}
			probe()
		}
		if ii := plan[start].inst; ii >= 0 {
			// However many of its groups ran, the intact table must not
			// outlive the instance's section (a never-built or already
			// released table makes this a no-op).
			r.Release(g.Instances[ii].Inst.G)
		}
		start = end
	}
	return nil
}

// Collect runs the grid and returns every Result in cell order — the
// non-streaming convenience the exp presets reduce from.
func (g *Grid) Collect(ctx context.Context, opts Options) ([]Result, error) {
	out := make([]Result, 0, len(g.Cells()))
	if err := g.Run(ctx, opts, func(res Result) error {
		out = append(out, res)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

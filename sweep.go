package spectralfly

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/version"
)

// Version returns the code version stamp embedded in this build —
// the module version plus VCS revision when available, or the value
// injected at link time. It is part of every content-addressed cache
// key and every JSON document the CLI emits, so results are always
// attributable to the code that produced them.
func Version() string { return version.Stamp() }

// CacheStats counts one result cache's traffic: Hits cells answered
// from the store, Misses cells that had to simulate, Puts cells
// written back.
type CacheStats = service.CacheStats

// Measure selects what every cell of a sweep measures.
type Measure = sweep.Measure

// Sweep measures (Measure values).
const (
	// MeasureLoad runs one open-loop offered-load point per cell.
	MeasureLoad = sweep.MeasureLoad
	// MeasureMotif runs one Ember-motif schedule per cell.
	MeasureMotif = sweep.MeasureMotif
	// MeasureSaturation bisects for the saturation knee per topology.
	MeasureSaturation = sweep.MeasureSaturation
)

// FaultAxis is one damage model on a sweep's fault axis: a (kind,
// fraction) pair sampled Trials times into independent deterministic
// plans, each applied to a fresh copy of every topology (each damaged
// routing table is derived from the intact one, sharing every row the
// damage leaves unchanged). Build axes with
// FaultLinks, FaultRouters or FaultRegions.
type FaultAxis = sweep.FaultAxis

// FaultLinks sweeps a uniformly random link-cut fraction, sampled
// trials times (0 means one plan; a negative count is an error).
func FaultLinks(fraction float64, trials int) FaultAxis {
	return FaultAxis{Kind: fault.Links, Fraction: fraction, Trials: trials}
}

// FaultRouters sweeps uniformly random router kills.
func FaultRouters(fraction float64, trials int) FaultAxis {
	return FaultAxis{Kind: fault.Routers, Fraction: fraction, Trials: trials}
}

// FaultRegions sweeps correlated chassis outages of regionSize
// consecutive routers (regionSize <= 0 defaults to 8).
func FaultRegions(fraction float64, regionSize, trials int) FaultAxis {
	return FaultAxis{Kind: fault.Regions, Fraction: fraction, RegionSize: regionSize, Trials: trials}
}

// ScheduleAxis is one live-reconfiguration model on a sweep's schedule
// axis: its cells run the intact topology with a timed topology-event
// schedule (link cuts/restores, router kills/revivals, planned
// rewiring steps) applied mid-run, the routing table re-derived at
// each event with every unchanged row shared. Build axes with ChurnLinks,
// ChurnRouters, ChurnRegions or RewiringSchedule, or fill the struct
// directly (Name is required; a non-nil Schedule, even an empty static
// one, replaces the churn sampler with one fixed schedule for all trials).
type ScheduleAxis = sweep.ScheduleAxis

// ChurnLinks sweeps repeating link churn: every period cycles a fresh
// random fraction of links fails, recovering outage cycles later,
// repeats times. trials 0 means one sampled schedule; a negative count
// is an error.
func ChurnLinks(fraction float64, period, outage int64, repeats, trials int) ScheduleAxis {
	return ScheduleAxis{Name: "links-churn", Kind: fault.Links, Fraction: fraction,
		Period: period, Outage: outage, Repeats: repeats, Trials: trials}
}

// ChurnRouters sweeps repeating router churn (each outage kills the
// routers and cuts their incident links; recovery restores both).
func ChurnRouters(fraction float64, period, outage int64, repeats, trials int) ScheduleAxis {
	return ScheduleAxis{Name: "routers-churn", Kind: fault.Routers, Fraction: fraction,
		Period: period, Outage: outage, Repeats: repeats, Trials: trials}
}

// ChurnRegions sweeps repeating correlated chassis outages of
// regionSize consecutive routers (regionSize <= 0 defaults to 8).
func ChurnRegions(fraction float64, regionSize int, period, outage int64, repeats, trials int) ScheduleAxis {
	return ScheduleAxis{Name: "regions-churn", Kind: fault.Regions, Fraction: fraction,
		RegionSize: regionSize, Period: period, Outage: outage, Repeats: repeats, Trials: trials}
}

// RewiringSchedule sweeps a planned reconfiguration: the topology (the
// union of every configuration's edges — the swept network must BE
// that union) steps between the configurations every period cycles,
// steps times, wrapping around. The schedule is built here, once, as a
// fixed value (so it enters cache keys like any other axis); its
// errors are fault.Rewiring's, and an edge outside a swept topology
// fails the sweep before any cell runs. See fault.Rewiring for the
// exact semantics.
func RewiringSchedule(name string, period int64, steps int, configs ...[][2]int32) (ScheduleAxis, error) {
	sched, err := fault.Rewiring(configs, period, steps)
	return ScheduleAxis{Name: name, Schedule: sched}, err
}

// Cell identifies one point of a sweep's cross-product grid; see
// CellResult for the measurement attached to it.
type Cell = sweep.Cell

// CellResult pairs a cell with its measurement: Stats for load and
// motif cells, Saturation for saturation cells, Err for a per-cell
// failure (the stream continues past failed cells).
type CellResult = sweep.Result

// Sweep declares a cross-product experiment grid — topologies × fault
// plans × routing policies × patterns/motifs × offered loads — and
// runs it on the concurrent sweep engine. Axes are declared with the
// chainable setters; Run streams one CellResult per cell, in the
// deterministic order of Cells, bit-identical for every Parallel
// setting. A zero-valued Sweep is usable; topologies are the only
// mandatory axis.
//
//	sw := spectralfly.NewSweep("lps(11,7)", "sf(9)").
//		Concentration(2).
//		Policies(spectralfly.RoutingMinimal, spectralfly.RoutingUGAL).
//		Loads(0.2, 0.5).
//		Faults(spectralfly.FaultLinks(0.05, 3))
//	err := sw.Run(ctx, func(res spectralfly.CellResult) error {
//		fmt.Println(res.Topology, res.Fault, res.Load, res.Stats.MeanLatency)
//		return nil
//	})
type Sweep struct {
	err    error // first axis error; surfaced by Run/Collect/Cells
	topos  []sweep.Instance
	conc   int
	grid   sweep.Grid
	msgsEP int

	// defaulted indexes topologies added before any Concentration call;
	// the next Concentration call re-bases them.
	defaulted []int

	parallel int
	workers  int

	cache *service.Cache
}

// NewSweep starts a sweep over the given topology specs (see ParseSpec
// for the grammar). More topologies can be added with Topologies and
// Networks; axes default to a single minimal-routing random-traffic
// entry.
func NewSweep(specs ...string) *Sweep {
	return new(Sweep).Topologies(specs...)
}

// fail records the builder's first error; Run, Collect and Cells
// surface it.
func (s *Sweep) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Topologies appends parsed topology specs to the topology axis, at
// the current Concentration.
func (s *Sweep) Topologies(specs ...string) *Sweep {
	for _, text := range specs {
		net, err := BuildSpec(text)
		if err != nil {
			s.fail(err)
			continue
		}
		s.Networks(net)
	}
	return s
}

// Networks appends already-built networks to the topology axis, at the
// current Concentration. Nil and degraded networks are rejected —
// damage is a sweep axis (Faults), not a topology property.
func (s *Sweep) Networks(nets ...*Network) *Sweep {
	for _, net := range nets {
		if net == nil {
			s.fail(fmt.Errorf("spectralfly: sweep network is nil"))
			continue
		}
		if net.degraded {
			s.fail(fmt.Errorf("spectralfly: sweep topology %s is degraded; declare damage with Faults instead", net.Name))
		}
		if s.conc == 0 {
			s.defaulted = append(s.defaulted, len(s.topos))
		}
		s.topos = append(s.topos, net.instance(max(s.conc, 1)))
	}
	return s
}

// instance is the network as a sweep topology entry with conc
// endpoints per router, a degraded network's dead routers included.
func (n *Network) instance(conc int) sweep.Instance {
	return sweep.Instance{
		Name:          n.Name,
		Inst:          &topo.Instance{Name: n.Name, G: n.G},
		Concentration: conc,
		Dead:          n.failedRouters,
	}
}

// Concentration sets the endpoints-per-router count (default 1) for
// topologies added after this call — and for topologies added earlier
// that were never given one, so NewSweep("lps(11,7)").Concentration(2)
// does what it reads. Interleave Concentration and Topologies calls to
// declare mixed-concentration axes like the paper's §VI-B set. A
// concentration below 1 is an error.
func (s *Sweep) Concentration(c int) *Sweep {
	if c < 1 {
		s.fail(fmt.Errorf("spectralfly: sweep concentration %d, want >= 1", c))
		return s
	}
	s.conc = c
	for _, i := range s.defaulted {
		s.topos[i].Concentration = c
	}
	s.defaulted = nil
	return s
}

// Policies sets the routing-policy axis (default: minimal).
func (s *Sweep) Policies(pols ...routing.Policy) *Sweep {
	s.grid.Policies = pols
	return s
}

// Patterns sets the synthetic-pattern axis of a load sweep (default:
// uniform random).
func (s *Sweep) Patterns(pats ...traffic.Pattern) *Sweep {
	s.grid.Patterns = pats
	return s
}

// Loads sets the offered-load axis and selects MeasureLoad.
func (s *Sweep) Loads(loads ...float64) *Sweep {
	s.grid.Loads = loads
	s.grid.Measure = sweep.MeasureLoad
	return s
}

// Motifs sets the Ember-motif axis and selects MeasureMotif.
func (s *Sweep) Motifs(motifs ...traffic.Motif) *Sweep {
	s.grid.Motifs = motifs
	s.grid.Measure = sweep.MeasureMotif
	return s
}

// Saturation selects MeasureSaturation: one bisection search per
// (topology, fault) point for the offered load where tail latency
// exceeds 3 × the light-load baseline, to within 0.02 of full load.
func (s *Sweep) Saturation() *Sweep {
	s.grid.Measure = sweep.MeasureSaturation
	return s
}

// Faults sets the fault axis. Every topology also keeps its intact
// cells unless IntactBaseline(false).
func (s *Sweep) Faults(axes ...FaultAxis) *Sweep {
	s.grid.Faults = axes
	return s
}

// Schedules sets the live-reconfiguration axis of a load sweep: each
// topology also runs intact under every listed timed topology-event
// schedule, after its fault groups. Reconfiguration cells honor
// Workers like any other cell (the unified engine runs schedules on
// both the serial and the sharded path; DESIGN.md §10).
func (s *Sweep) Schedules(axes ...ScheduleAxis) *Sweep {
	s.grid.Schedules = axes
	return s
}

// TenantSpec describes one co-scheduled job of a multi-tenant sweep:
// a name for reports, a synthetic Pattern, its size in Ranks, and its
// offered Load — 0 defers to the cell's Loads-axis value, which is how
// an aggressor sweeps load while a victim stays pinned.
type TenantSpec = traffic.TenantSpec

// Tenants declares a multi-tenant workload for every load cell: the
// specs are placed on disjoint endpoint sets of each topology by the
// named placement policy ("sequential", "random" or "clustered" —
// clustered allocates inside KWay partitions of the router graph), and
// each cell's Stats carry per-tenant delivered/dropped/latency
// accounting in Stats.Tenants. Placement draws derive per tenant from
// the sweep seed, so appending a tenant never perturbs the placement
// of the tenants before it.
func (s *Sweep) Tenants(policy string, specs ...TenantSpec) *Sweep {
	var p traffic.PlacementPolicy
	if err := p.UnmarshalText([]byte(policy)); err != nil {
		s.fail(fmt.Errorf("spectralfly: %w", err))
		return s
	}
	s.grid.Tenants = traffic.Tenants{Specs: specs, Policy: p}
	return s
}

// Layout runs every cell under the §VII machine-room wire model: each
// topology is placed on the cabinet floor by the given mode ("qap" —
// the paper's annealed heuristic, "faq", or "sequential" for no
// optimization) and every link's latency becomes its cable length ×
// 5 ns/m × 1 cycle/ns, at which intra-cabinet wires cost exactly the
// uniform default. Without this call the sweep keeps the uniform wire
// model and byte-identical historical outputs.
func (s *Sweep) Layout(mode string) *Sweep {
	s.grid.Layout = sweep.Layout{Mode: mode}
	return s
}

// ShiftTraffic makes every load cell's workload time-varying: the
// traffic rotates through the given patterns every period cycles,
// wrapping around (the Patterns axis then only labels cells). Shifting
// cells honor Workers like any other cell.
func (s *Sweep) ShiftTraffic(period int64, pats ...traffic.Pattern) *Sweep {
	s.grid.ShiftPeriod = period
	s.grid.ShiftPatterns = pats
	return s
}

// IntactBaseline controls whether the undamaged cells of each topology
// are part of the grid (default true).
func (s *Sweep) IntactBaseline(on bool) *Sweep {
	s.grid.OmitIntact = !on
	return s
}

// Ranks sets the MPI rank count mapped onto the endpoints. The bit
// patterns need a power of two; the default, 0, sizes it to the
// largest power of two ≤ the smallest topology's endpoint count (on
// motif sweeps, to the largest motif's rank count).
func (s *Sweep) Ranks(ranks int) *Sweep {
	s.grid.Ranks = ranks
	return s
}

// MsgsPerRank sets the per-rank message budget of load cells and the
// per-endpoint budget of saturation searches (default 10).
func (s *Sweep) MsgsPerRank(msgs int) *Sweep {
	s.msgsEP = msgs
	return s
}

// Seed sets the base seed every cell and fault plan derives from
// (default 1).
func (s *Sweep) Seed(seed int64) *Sweep {
	s.grid.Seed = seed
	return s
}

// Parallel sizes the worker pool: 0 = GOMAXPROCS, 1 = serial. Results
// are bit-identical for every value.
func (s *Sweep) Parallel(workers int) *Sweep {
	s.parallel = workers
	return s
}

// Workers sets each cell's simulator shard count (SimConfig.Workers),
// a speed knob only: results are identical for every value. With
// Workers >= 2 and Parallel unset, the cell pool is sized
// GOMAXPROCS / Workers so cells × shards never oversubscribe the
// machine.
func (s *Sweep) Workers(n int) *Sweep {
	s.workers = n
	return s
}

// Cache enables the content-addressed result cache at dir ("" = the
// user cache directory, ~/.cache/spectralfly on Linux). Every cell
// whose content key — a digest of the cell identity, seed, workload
// knobs, exact topology wiring and the code version stamp — is already
// stored is answered from the cache without simulating; every newly
// computed cell is stored before it is emitted. Re-running an
// identical sweep against a warm cache therefore runs zero
// simulations and reproduces the previous output byte for byte, and
// overlapping sweeps share the cells they have in common. The cache is
// also the checkpoint: a killed run re-run against the same cache
// replays every cell stored so far and simulates only the rest.
func (s *Sweep) Cache(dir string) *Sweep {
	if dir == "" {
		var err error
		if dir, err = service.DefaultCacheDir(); err != nil {
			s.fail(fmt.Errorf("spectralfly: no default cache dir: %w", err))
			return s
		}
	}
	c, err := service.OpenCache(dir)
	if err != nil {
		s.fail(fmt.Errorf("spectralfly: open cache: %w", err))
		return s
	}
	s.cache = c
	return s
}

// CacheStats reports the cache's traffic so far (zero-valued without
// Cache). After a fully warm Run, Misses stays 0 — the signature of a
// zero-simulation replay.
func (s *Sweep) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.Stats()
}

// Fingerprint returns the sweep's full content identity: a digest over
// the code version stamp, every axis (topologies with their exact
// wiring, faults, schedules, policies, patterns, motifs, loads), every
// workload knob (not Workers, which changes no result). Two sweeps with equal
// fingerprints compute identical grids; the distributed fabric uses it
// as the coordinator/worker compatibility check.
func (s *Sweep) Fingerprint() (string, error) {
	g, err := s.build()
	if err != nil {
		return "", err
	}
	return g.Fingerprint(s.workers)
}

// CellKeys returns each cell's content-addressed cache key, in cell
// order — the identities under which Run stores and looks up results.
func (s *Sweep) CellKeys() ([]string, error) {
	g, err := s.build()
	if err != nil {
		return nil, err
	}
	return g.ContentKeys(s.workers)
}

// build finalizes the grid with defaults resolved.
func (s *Sweep) build() (*sweep.Grid, error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(s.topos) == 0 {
		return nil, fmt.Errorf("spectralfly: sweep has no topologies")
	}
	g := s.grid // copy: Run must be re-invocable
	g.Instances = s.topos
	if g.Seed == 0 {
		g.Seed = 1
	}
	g.MsgsPerRank = s.msgsEP
	if g.MsgsPerRank == 0 {
		g.MsgsPerRank = 10
	}
	if len(g.Loads) == 0 && g.Measure == sweep.MeasureLoad && len(g.Motifs) == 0 {
		g.Loads = []float64{0.3}
	}
	// The layout and tenant axes default their private seeds to the
	// sweep seed, resolved here so cache keys see the concrete value.
	if g.Layout.Mode != "" && g.Layout.Seed == 0 {
		g.Layout.Seed = g.Seed
	}
	if len(g.Tenants.Specs) > 0 && g.Tenants.Seed == 0 {
		g.Tenants.Seed = g.Seed
	}
	if g.Ranks == 0 && g.Measure == sweep.MeasureMotif {
		// Motifs fix their own rank-space size: default to the largest
		// so every schedule validates.
		for _, m := range g.Motifs {
			if sized, ok := m.(interface{ NumRanks() int }); ok && sized.NumRanks() > g.Ranks {
				g.Ranks = sized.NumRanks()
			}
		}
	}
	if g.Ranks == 0 && g.Measure != sweep.MeasureSaturation {
		// Largest power of two that fits the smallest topology's
		// endpoint count, so every bit-pattern rank maps to an endpoint.
		minEP := s.topos[0].Endpoints()
		for _, inst := range s.topos[1:] {
			if ep := inst.Endpoints(); ep < minEP {
				minEP = ep
			}
		}
		ranks := 1
		for ranks*2 <= minEP {
			ranks *= 2
		}
		g.Ranks = ranks
	}
	return &g, nil
}

// Cells returns the expanded grid in execution order without running
// it — the preview the CLI prints and the order Run's stream follows.
func (s *Sweep) Cells() ([]Cell, error) {
	g, err := s.build()
	if err != nil {
		return nil, err
	}
	return g.Cells(), nil
}

// Run executes the sweep and streams one CellResult per cell to fn, in
// the deterministic order of Cells, as results become available.
// Cancelling ctx stops the sweep promptly — cells already delivered
// stay delivered, and Run returns ctx.Err(). An error from fn aborts
// the sweep the same way. Per-cell failures ride in CellResult.Err and
// do not stop the stream.
func (s *Sweep) Run(ctx context.Context, fn func(CellResult) error) error {
	return s.RunRange(ctx, 0, -1, fn)
}

// RunRange executes only the cells with index in [lo, hi) — the
// distributed worker's unit of execution (hi < 0 means the end of the
// grid). Results stream in cell order and are bit-identical to the
// same cells' results from a full Run, for every partition of the
// grid into ranges.
func (s *Sweep) RunRange(ctx context.Context, lo, hi int, fn func(CellResult) error) error {
	g, err := s.build()
	if err != nil {
		return err
	}
	return g.RunRange(ctx, s.options(), lo, hi, fn)
}

// options assembles the grid execution options from the builder state.
func (s *Sweep) options() sweep.Options {
	opts := sweep.Options{Parallel: s.parallel, Workers: s.workers}
	if s.cache != nil {
		opts.Cache = s.cache
	}
	return opts
}

// Collect runs the sweep and returns all results in cell order.
func (s *Sweep) Collect(ctx context.Context) ([]CellResult, error) {
	var out []CellResult
	if err := s.Run(ctx, func(res CellResult) error {
		out = append(out, res)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Stream runs the sweep in the background and returns a channel of
// results in cell order. The channel closes when the sweep finishes,
// fails, or ctx is cancelled; wait() then reports the terminal error
// (nil on success). The consumer must drain the channel.
func (s *Sweep) Stream(ctx context.Context) (results <-chan CellResult, wait func() error) {
	ch := make(chan CellResult)
	done := make(chan error, 1)
	go func() {
		err := s.Run(ctx, func(res CellResult) error {
			select {
			case ch <- res:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		close(ch)
		done <- err
	}()
	return ch, func() error { return <-done }
}

// Package runner is the concurrent experiment engine behind the
// paper-reproduction sweeps. The evaluation grids of §VI — (topology ×
// policy × pattern × load × seed) for Figures 6–8, the motif study of
// Figures 9–10 and the saturation knee — are embarrassingly parallel:
// every point is one independent simulation. A Runner executes a job
// set over a worker pool sized by GOMAXPROCS while memoizing the
// expensive shared artifacts:
//
//   - routing tables, built once per topology instance and shared
//     read-only across workers (routing.Table documents this contract);
//   - simulator prototypes (the port maps of simnet.New), cloned
//     cheaply per job via simnet.Clone;
//   - rank→endpoint mappings, keyed by (endpoints, ranks, seed).
//
// Results are returned in submission order regardless of completion
// order, and each job carries its own seed (derive it from a stable key
// with DeriveSeed), so a run is bit-identical whether it executes on
// one worker or sixteen.
package runner

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Kind selects what a Job measures.
type Kind int

const (
	// Load runs one open-loop offered-load point (RunLoad).
	Load Kind = iota
	// Motif runs one Ember-motif schedule (RunBatches).
	Motif
	// Saturation bisects for the saturation knee (SaturationLoad).
	Saturation
)

// Job describes one simulation point of an experiment grid.
type Job struct {
	// Key is the job's stable identity. Derive the per-job Seed from it
	// (DeriveSeed) so results are independent of scheduling order.
	Key string
	// Inst is the topology instance; jobs sharing an *Instance share
	// its memoized routing table and simulator prototype.
	Inst *topo.Instance
	// Concentration is the endpoint count per router.
	Concentration int
	// Policy is the routing algorithm for this point.
	Policy routing.Policy
	// Kind selects the measurement; the fields below apply per Kind.
	Kind Kind

	// Pattern (Load) / Motiv schedule (Motif).
	Pattern traffic.Pattern
	Motif   traffic.Motif
	// Load is the offered load in (0,1] for Load jobs.
	Load float64
	// Ranks is the MPI job size for Load and Motif jobs.
	Ranks int
	// MsgsPerRank is the message count per rank (Load), or per endpoint
	// for the uniform traffic of Saturation jobs.
	MsgsPerRank int
	// MappingSeed seeds the rank→endpoint mapping. Keep it constant
	// across the jobs of one sweep so the mapping is memoized and the
	// job allocation matches the serial drivers.
	MappingSeed int64
	// DeadRouters marks failed routers on a damaged instance (nil for
	// intact topologies). The mask is shared read-only across jobs and
	// applied to each job's private simulator clone.
	DeadRouters []bool
	// Schedule lists timed topology events applied mid-run
	// (simnet.Config.Schedule). Load jobs only: a motif run has no
	// global clock to pin events to, and the saturation bisection would
	// replay the schedule at every probe. Scheduled jobs honor Workers
	// like any other job: the sharded engine applies changes at
	// schedule-aware window barriers (DESIGN.md §10).
	Schedule fault.Schedule
	// ShiftPeriod and ShiftPatterns describe time-varying traffic for
	// Load jobs: every ShiftPeriod cycles the workload advances to the
	// next pattern in ShiftPatterns, wrapping around (the shifting half
	// of the reconfiguration exhibit). ShiftPeriod > 0 requires a
	// nonempty ShiftPatterns and ignores Pattern; such jobs run
	// RunLoadTimed, which honors Workers like RunLoad.
	ShiftPeriod   int64
	ShiftPatterns []traffic.Pattern
	// LinkLatencies is an optional per-port wire-latency table
	// (layout.LinkLatencies derives one from a physical placement),
	// shared read-only across jobs and applied to each job's private
	// simulator clone; nil keeps the uniform Config.LinkLatency scalar.
	LinkLatencies *simnet.LinkLatencies
	// Tenants is an optional multi-tenant workload: a materialized
	// placement (traffic.Tenants.Place) whose combined pattern and
	// per-tenant loads replace Pattern/Ranks/MappingSeed for Load jobs
	// (Load resolves zero-load specs) and whose merged rounds replace
	// Motif/Ranks for Motif jobs. Results carry per-tenant accounting
	// in Stats.Tenants.
	Tenants *traffic.Assignment
	// Seed drives the simulation itself.
	Seed int64
	// Workers is the simulator's intra-run shard count
	// (simnet.Config.Workers), a speed knob only: statistics are
	// identical for every value.
	Workers int
	// LatencyFactor and Tol parameterize Saturation jobs
	// (simnet.SaturationLoad); zero values select its defaults.
	LatencyFactor float64
	Tol           float64
}

// Result pairs a job with its measurement.
type Result struct {
	// Job points into the slice passed to Run.
	Job *Job
	// Stats holds the simulation statistics (Load and Motif jobs).
	Stats simnet.Stats
	// Saturation is the measured knee (Saturation jobs).
	Saturation float64
	// Err reports a per-job failure; other jobs still complete.
	Err error
}

// Runner executes job sets over a worker pool, memoizing routing
// tables, simulator prototypes and rank mappings across jobs. A Runner
// is safe for concurrent use; the zero value is NOT valid — use New.
type Runner struct {
	workers int

	mu        sync.Mutex
	tableOpts routing.TableOptions
	tables    map[*graph.Graph]*tableEntry
	protos    map[protoKey]*protoEntry
	maps      map[mapKey]*mapEntry
}

// tableEntry memoizes one graph's routing table. The table pointer is
// atomic so TableBytes can observe entries without racing a build in
// progress.
type tableEntry struct {
	once  sync.Once
	table atomic.Pointer[routing.Table]
}

type protoKey struct {
	g    *graph.Graph
	conc int
}

type protoEntry struct {
	once  sync.Once
	proto *simnet.Network
	err   error
}

type mapKey struct {
	totalEP, ranks int
	seed           int64
}

type mapEntry struct {
	once sync.Once
	mp   traffic.Mapping
	err  error
}

// New returns a Runner with the given worker count; workers <= 0 sizes
// the pool by GOMAXPROCS, workers == 1 runs jobs one at a time.
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers: workers,
		tables:  make(map[*graph.Graph]*tableEntry),
		protos:  make(map[protoKey]*protoEntry),
		maps:    make(map[mapKey]*mapEntry),
	}
}

// SetTableOptions selects the storage backend for routing tables the
// Runner builds from here on (default: dense). Tables already memoized
// keep their backend; scale sweeps set this once, before submitting
// jobs, so every table of the sweep is packed or lazy.
func (r *Runner) SetTableOptions(opts routing.TableOptions) {
	r.mu.Lock()
	r.tableOpts = opts
	r.mu.Unlock()
}

// Table returns the memoized routing table for a topology instance,
// building it on first use with the configured storage backend. The
// table is shared read-only.
func (r *Runner) Table(g *graph.Graph) *routing.Table {
	r.mu.Lock()
	e := r.tables[g]
	if e == nil {
		e = &tableEntry{}
		r.tables[g] = e
	}
	opts := r.tableOpts
	r.mu.Unlock()
	e.once.Do(func() { e.table.Store(routing.NewTableOpts(g, opts)) })
	return e.table.Load()
}

// RegisterTable seeds the table memo for g with a table built
// elsewhere — the resilience sweep installs one incrementally repaired
// table per failure plan here, so no job ever pays for a full NewTable
// rebuild of a damaged instance. Registering after a table for g has
// already been built (or registered) is a no-op; t.G must be g.
func (r *Runner) RegisterTable(g *graph.Graph, t *routing.Table) {
	if t == nil || t.G != g {
		panic("runner: RegisterTable requires a table built for g")
	}
	r.mu.Lock()
	e := r.tables[g]
	if e == nil {
		e = &tableEntry{}
		r.tables[g] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.table.Store(t) })
}

// TableBytes returns the current distance-store footprint of every
// memoized routing table, in bytes. Lazy tables report only their
// resident working set, so the value tracks real memory as sweeps
// build, touch and Release instances; scale drivers sample it per cell
// to report peak table memory.
func (r *Runner) TableBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b int64
	for _, e := range r.tables {
		if t := e.table.Load(); t != nil {
			b += t.MemoryBytes()
		}
	}
	return b
}

// Mapping returns the memoized rank→endpoint mapping for
// (totalEP, ranks, seed), building it on first use.
func (r *Runner) Mapping(ranks, totalEP int, seed int64) (traffic.Mapping, error) {
	k := mapKey{totalEP: totalEP, ranks: ranks, seed: seed}
	r.mu.Lock()
	e := r.maps[k]
	if e == nil {
		e = &mapEntry{}
		r.maps[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.mp, e.err = traffic.NewMapping(ranks, totalEP, seed) })
	return e.mp, e.err
}

// Release drops the memoized routing table and simulator prototypes
// for g. Sweeps over many transient damaged instances (the resilience
// grid builds one per failure plan) call this once a graph's jobs have
// all completed, so peak memory tracks one batch of plans rather than
// the whole sweep. Releasing a graph with jobs still in flight is a
// caller bug (those jobs hold their own references, but a concurrent
// re-build could duplicate work); releasing an unknown graph is a
// no-op.
func (r *Runner) Release(g *graph.Graph) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.tables, g)
	for k := range r.protos {
		if k.g == g {
			delete(r.protos, k)
		}
	}
}

// network returns a private simulator for the job: a clone of the
// memoized per-(instance, concentration) prototype with the job's
// policy and seed applied.
func (r *Runner) network(job *Job) (*simnet.Network, error) {
	k := protoKey{g: job.Inst.G, conc: job.Concentration}
	r.mu.Lock()
	e := r.protos[k]
	if e == nil {
		e = &protoEntry{}
		r.protos[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		table := r.Table(job.Inst.G)
		e.proto, e.err = simnet.New(simnet.Config{
			Topo:          job.Inst.G,
			Concentration: job.Concentration,
		}, table)
	})
	if e.err != nil {
		return nil, e.err
	}
	nw := e.proto.Clone()
	nw.SetPolicy(job.Policy)
	nw.SetSeed(job.Seed)
	nw.SetWorkers(job.Workers)
	if job.DeadRouters != nil {
		nw.SetDeadRouters(job.DeadRouters)
	}
	if len(job.Schedule) > 0 {
		if err := nw.SetSchedule(job.Schedule); err != nil {
			return nil, err
		}
	}
	if job.LinkLatencies != nil {
		if err := nw.SetLinkLatencies(job.LinkLatencies); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// forEachIndex runs fn(0..n-1) over min(workers, n) goroutines — the
// shared scheduling skeleton of Run and Do. fn must be safe to call
// concurrently for distinct indices.
func forEachIndex(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// Run executes the job set over the worker pool and returns one Result
// per job, in submission order. Individual job failures are reported in
// Result.Err without aborting the rest of the set. Run is RunStream
// without cancellation, collecting the stream into a slice.
func (r *Runner) Run(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	_ = r.RunStream(context.Background(), jobs, func(i int, res Result) error {
		results[i] = res
		return nil
	})
	return results
}

func (r *Runner) exec(job *Job) Result {
	res := Result{Job: job}
	if job.Inst == nil || job.Inst.G == nil {
		res.Err = fmt.Errorf("runner: job %q has no topology instance", job.Key)
		return res
	}
	if job.DeadRouters != nil && len(job.DeadRouters) != job.Inst.G.N() {
		// Validate here rather than letting simnet's setter panic in a
		// worker goroutine, which would abort the whole sweep.
		res.Err = fmt.Errorf("runner: job %q: DeadRouters length %d, want %d",
			job.Key, len(job.DeadRouters), job.Inst.G.N())
		return res
	}
	if len(job.Schedule) > 0 {
		if job.Kind != Load {
			res.Err = fmt.Errorf("runner: job %q: topology-event schedules apply to Load jobs only", job.Key)
			return res
		}
		// Validate before building the simulator so a malformed cell
		// fails with its job key attached, not a bare simnet error.
		if err := job.Schedule.Validate(job.Inst.G); err != nil {
			res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
			return res
		}
	}
	if job.ShiftPeriod > 0 && (job.Kind != Load || len(job.ShiftPatterns) == 0) {
		res.Err = fmt.Errorf("runner: job %q: ShiftPeriod needs a Load job with ShiftPatterns", job.Key)
		return res
	}
	nw, err := r.network(job)
	if err != nil {
		res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
		return res
	}
	switch job.Kind {
	case Load:
		if job.Load <= 0 || job.Load > 1 {
			// Validate here rather than letting simnet.RunLoad panic in a
			// worker goroutine, which would abort the whole sweep.
			res.Err = fmt.Errorf("runner: job %q: offered load %v out of (0,1]", job.Key, job.Load)
			return res
		}
		if job.Tenants != nil {
			if job.ShiftPeriod > 0 {
				res.Err = fmt.Errorf("runner: job %q: tenants and shifting traffic are mutually exclusive", job.Key)
				return res
			}
			tc, err := job.Tenants.Config(job.Load)
			if err != nil {
				res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
				return res
			}
			if err := nw.SetTenants(tc); err != nil {
				res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
				return res
			}
			res.Stats = nw.RunLoad(job.Tenants.Pattern(), job.Load, job.MsgsPerRank)
			return res
		}
		mp, err := r.Mapping(job.Ranks, nw.Endpoints(), job.MappingSeed)
		if err != nil {
			res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
			return res
		}
		if job.ShiftPeriod > 0 {
			funcs := make([]simnet.PatternFunc, len(job.ShiftPatterns))
			for i, p := range job.ShiftPatterns {
				funcs[i] = mp.PatternEndpoints(p, job.Ranks)
			}
			period := job.ShiftPeriod
			res.Stats = nw.RunLoadTimed(func(srcEP int, now int64, rng *rand.Rand) int {
				return funcs[int(now/period)%len(funcs)](srcEP, rng)
			}, job.Load, job.MsgsPerRank)
		} else {
			res.Stats = nw.RunLoad(mp.PatternEndpoints(job.Pattern, job.Ranks), job.Load, job.MsgsPerRank)
		}
	case Motif:
		if job.Tenants != nil {
			tc, err := job.Tenants.Config(1.0)
			if err != nil {
				res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
				return res
			}
			if err := nw.SetTenants(tc); err != nil {
				res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
				return res
			}
			res.Stats, err = nw.RunBatches(job.Tenants.Rounds())
			if err != nil {
				res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
			}
			return res
		}
		if err := traffic.Validate(job.Motif, job.Ranks); err != nil {
			res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
			return res
		}
		mp, err := r.Mapping(job.Ranks, nw.Endpoints(), job.MappingSeed)
		if err != nil {
			res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
			return res
		}
		res.Stats, err = nw.RunBatches(traffic.MapRounds(job.Motif, mp))
		if err != nil {
			res.Err = fmt.Errorf("runner: job %q: %w", job.Key, err)
			return res
		}
	case Saturation:
		nep := nw.Endpoints()
		pattern := func(srcEP int, rng *rand.Rand) int { return rng.Intn(nep) }
		res.Saturation = nw.SaturationLoad(pattern, job.MsgsPerRank, job.LatencyFactor, job.Tol)
	default:
		res.Err = fmt.Errorf("runner: job %q has unknown kind %d", job.Key, job.Kind)
	}
	return res
}

// DeriveSeed maps a base seed and a stable job key to a per-job seed
// (FNV-1a over the key, folded into the base). Deriving seeds from job
// identity rather than execution order is what keeps parallel and
// serial sweeps bit-identical.
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	s := int64(h.Sum64()&0x7fffffffffffffff) ^ base
	if s == 0 {
		s = base + 1
	}
	return s
}

// Do runs independent tasks concurrently over min(workers, len(tasks))
// goroutines (workers <= 0 means GOMAXPROCS) and returns the first
// non-nil error by task order. It is the fan-out primitive for
// heterogeneous work such as the ablation studies.
func Do(workers int, tasks ...func() error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, len(tasks))
	forEachIndex(workers, len(tasks), func(i int) {
		errs[i] = tasks[i]()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

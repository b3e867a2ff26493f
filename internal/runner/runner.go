// Package runner holds what the paper-reproduction sweeps share
// across cells. The evaluation grids of §VI — (topology × policy ×
// pattern × load × seed) for Figures 6–8, the motif study of Figures
// 9–10 and the saturation knee — are embarrassingly parallel: every
// point is one independent simulation. internal/sweep turns each cell
// into a simulation; a Runner supplies the two things every cell
// needs from outside itself:
//
//   - a memo of the expensive shared artifacts: routing tables, built
//     once per topology instance and shared read-only across workers
//     (routing.Table documents this contract); simulator prototypes
//     (the port maps of simnet.New), handed out as private clones by
//     Network; and rank→endpoint mappings, keyed by (endpoints, ranks,
//     seed);
//   - an ordered fan-out (RunStream) over a worker pool sized by
//     GOMAXPROCS, delivering results in index order regardless of
//     completion order.
//
// Each cell carries its own seed (derive it from a stable key with
// DeriveSeed), so a sweep is bit-identical whether it executes on one
// worker or sixteen.
package runner

import (
	"context"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// Runner fans work out over a worker pool and memoizes routing
// tables, simulator prototypes and rank mappings across the cells it
// serves. A Runner is safe for concurrent use; the zero value is NOT
// valid — use New.
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
// the pool by GOMAXPROCS, workers == 1 runs one index at a time.
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
// keep their backend; scale sweeps set this once, before running any
// cell, so every table of the sweep is packed or lazy.
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
// table per failure plan here, so no cell ever pays for a full NewTable
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
// grid builds one per failure plan) call this once a graph's cells have
// all completed, so peak memory tracks one batch of plans rather than
// the whole sweep. Releasing a graph with cells still in flight is a
// caller bug (those cells hold their own references, but a concurrent
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

// Network returns a private simulator for topology g with conc
// endpoints per router: a clone of the memoized per-(g, conc)
// prototype, built on first use over g's memoized routing table. The
// clone shares the prototype's immutable half read-only; its per-run
// configuration (policy, seed, shards, dead routers, schedule,
// latencies, tenants) is the caller's to set.
func (r *Runner) Network(g *graph.Graph, conc int) (*simnet.Network, error) {
	k := protoKey{g: g, conc: conc}
	r.mu.Lock()
	e := r.protos[k]
	if e == nil {
		e = &protoEntry{}
		r.protos[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.proto, e.err = simnet.New(simnet.Config{Topo: g, Concentration: conc}, r.Table(g))
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.proto.Clone(), nil
}

// DeriveSeed maps a base seed and a stable cell key to a per-cell seed
// (FNV-1a over the key, folded into the base). Deriving seeds from cell
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
// non-nil error by task order; every task runs regardless. It is the
// fan-out primitive for heterogeneous work such as the ablation
// studies.
func Do(workers int, tasks ...func() error) error {
	errs := make([]error, len(tasks))
	_ = New(workers).RunStream(context.Background(), len(tasks),
		func(i int) { errs[i] = tasks[i]() },
		func(int) error { return nil })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

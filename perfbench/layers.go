package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// panelInput is what the layer panel of a traced run needs from its
// workload.
type panelInput struct {
	specs []instSpec
	grid  *sweep.Grid
	// p1 runs the same grid one cell at a time, with the tables of the
	// workload's own runner when it has one.
	p1 sweep.Options
	// rows are the workload's results; every probe that re-runs a cell
	// must reproduce them.
	rows []sweep.Result
	// tableSrc supplies the intact routing tables the direct simnet
	// probes use (nil builds them with p1.Tables).
	tableSrc *runner.Runner
	// fabricWorkers > 0 serves the grid over loopback once more, for
	// workloads whose passes do not already exercise the fabric.
	fabricWorkers int
}

// Probe sizes: random next-hop lookups per instance (a lazy table
// re-runs a BFS on most of them, hence fewer), and the link-cut share
// the repair probe removes.
const (
	nexthopCalls     = 1 << 16
	nexthopCallsLazy = 1 << 11
	repairFraction   = 0.05
)

// runPanel times the benchmark's calls into each layer on the
// workload's own instances and grid, then derives every per-layer
// metric from the spans and counters.
func runPanel(b *bench, in panelInput) error {
	insts := in.grid.Instances
	// topo: families the workload lacks are built at §VI-B size.
	have := map[string]bool{}
	for _, s := range in.specs {
		have[s.family] = true
	}
	for _, s := range paperInstances {
		if !have[s.family] {
			if _, err := buildInstances(b, 0, []instSpec{s}); err != nil {
				return err
			}
		}
	}
	for _, f := range families {
		b.layer["topo.build_ms."+f] = 1e3 * b.t.medianOf("topo."+f)
	}

	routingLayer(b, insts)
	partitionLayer(b, insts)
	if err := faultLayer(b, insts); err != nil {
		return err
	}
	if err := simnetLayer(b, in); err != nil {
		return err
	}
	if in.fabricWorkers > 0 {
		id := b.t.start("fabric", 0)
		f, err := newFabric(b, in.grid, in.p1, in.fabricWorkers, id)
		if err != nil {
			return err
		}
		defer f.close()
		s, err := f.serve(id)
		if err != nil {
			return err
		}
		if _, err := f.work(s, id); err != nil {
			return err
		}
		b.expect(sameRows(s.rows, in.rows), "loopback fabric rows differ from the workload's")
		_, warm, err := f.warm(id)
		if err != nil {
			return err
		}
		b.expect(bytes.Equal(resultBytes(warm), resultBytes(s.rows)), "loopback warm replay differs from its cold pass")
		b.t.end(id)
	}

	b.layer["sweep.content_keys_ms"] = 1e3 * b.t.medianOf("sweep.Grid.ContentKeys")
	b.layer["sweep.encode_us"] = 1e6 * b.t.mean("sweep.EncodePayload")
	b.layer["sweep.decode_us"] = 1e6 * b.t.mean("sweep.DecodePayload")
	b.layer["service.cache_get_us"] = 1e6 * b.t.mean("service.Cache.Get")
	b.layer["service.cache_put_us"] = 1e6 * b.t.mean("service.Cache.Put")
	b.layer["service.cache_hit_frac"] = b.t.counter("service.cache_hits") / max(1, b.t.counter("service.cache_gets"))
	for _, ep := range []string{"claim", "result", "heartbeat"} {
		b.layer["service.rpc_ms."+ep] = 1e3 * b.t.medianOf("service.rpc."+ep)
	}
	b.layer["service.rpc_retries"] = b.t.counter("service.rpc_retries")
	b.layer["service.worker_busy_frac"] = b.t.total("service.Exec") / max(1e-9, b.t.total("service.RunWorker"))
	return nil
}

// routingLayer builds, probes, repairs and restores each instance's
// table on every storage backend.
func routingLayer(b *bench, insts []sweep.Instance) {
	for _, store := range []routing.Store{routing.StoreDense, routing.StorePacked, routing.StoreLazy} {
		name := store.String()
		calls := nexthopCalls
		if store == routing.StoreLazy {
			calls = nexthopCallsLazy
		}
		var tableBytes, lookups float64
		for ii, inst := range insts {
			g := inst.Inst.G
			n := g.N()
			var t *routing.Table
			b.t.do("routing.NewTableOpts."+name, 0, func() {
				t = routing.NewTableOpts(g, routing.TableOptions{Store: store})
			})

			rng := rand.New(rand.NewSource(b.gridSeed + int64(ii)))
			vs, ds := make([]int, calls), make([]int, calls)
			for k := range vs {
				vs[k] = rng.Intn(n)
				ds[k] = (vs[k] + 1 + rng.Intn(n-1)) % n
			}
			var sink int32
			b.t.do("routing.Table.NextHopRandom."+name, 0, func() {
				for k := range vs {
					sink += t.NextHopRandom(vs[k], ds[k], rng)
				}
			})
			lookups += float64(calls)
			tableBytes += float64(t.MemoryBytes())
			b.expect(sink >= 0, "%s: negative next hop", inst.Name)

			// Distances to compare after the restore, sampled before the
			// intact table is dropped.
			want := make([]int32, 256)
			for k := range want {
				want[k] = t.HopDist(vs[k], ds[k])
			}
			out := fault.Plan{Kind: fault.Links, Fraction: repairFraction,
				Seed: runner.DeriveSeed(b.gridSeed, "perfbench/repair/"+inst.Name)}.Apply(g)
			var rep *routing.Table
			b.t.do("routing.Table.Repair."+name, 0, func() { rep = t.Repair(out.Removed) })
			t = nil
			var res *routing.Table
			b.t.do("routing.Table.Restore."+name, 0, func() { res = rep.Restore(out.Removed) })
			ok := res.G.M() == g.M()
			for k := range want {
				ok = ok && res.HopDist(vs[k], ds[k]) == want[k]
			}
			b.expect(ok, "%s %s: restore after repair does not reproduce the intact table", inst.Name, name)
			rep, res = nil, nil
			runtime.GC()
		}
		b.layer["routing.build_ms."+name] = 1e3 * b.t.total("routing.NewTableOpts."+name)
		b.layer["routing.repair_ms."+name] = 1e3 * b.t.total("routing.Table.Repair."+name)
		b.layer["routing.restore_ms."+name] = 1e3 * b.t.total("routing.Table.Restore."+name)
		b.layer["routing.table_mb."+name] = tableBytes / 1e6
		b.layer["routing.nexthop_ns."+name] = 1e9 * b.t.total("routing.Table.NextHopRandom."+name) / lookups
	}
}

// partitionLayer splits the workload's largest instance into one part
// per core, with the options the sharded engine uses.
func partitionLayer(b *bench, insts []sweep.Instance) {
	g := insts[0].Inst.G
	for _, in := range insts[1:] {
		if in.Inst.G.N() > g.N() {
			g = in.Inst.G
		}
	}
	var part []int32
	b.t.do("partition.KWay", 0, func() {
		part = partition.KWay(g, max(2, b.nproc), partition.Options{Seed: 0x5f3759df, Trials: 2})
	})
	var cut int
	edges := g.Edges()
	for _, e := range edges {
		if part[e[0]] != part[e[1]] {
			cut++
		}
	}
	b.layer["partition.kway_ms"] = 1e3 * b.t.total("partition.KWay")
	b.layer["partition.cut_frac"] = float64(cut) / float64(len(edges))
}

// faultLayer samples the churn-repair damage model on every instance.
func faultLayer(b *bench, insts []sweep.Instance) error {
	for _, in := range insts {
		g := in.Inst.G
		for _, f := range churnFaults {
			p := fault.Plan{Kind: f.Kind, Fraction: f.Fraction, RegionSize: f.RegionSize,
				Seed: runner.DeriveSeed(b.gridSeed, planKey(in.Name, f, 0))}
			b.t.do("fault.Plan.Apply", 0, func() { p.Apply(g) })
		}
		spec := churnSpec(churnSchedule, runner.DeriveSeed(b.gridSeed, scheduleKey(in.Name, churnSchedule, 0)))
		var err error
		b.t.do("fault.ChurnSpec.Schedule", 0, func() { _, err = spec.Schedule(g) })
		if err != nil {
			return err
		}
	}
	b.layer["fault.plan_ms"] = 1e3 * b.t.total("fault.Plan.Apply")
	b.layer["fault.schedule_ms"] = 1e3 * b.t.total("fault.ChurnSpec.Schedule")
	return nil
}

// churnSpec is the churn sampler a schedule axis entry stands for.
func churnSpec(s sweep.ScheduleAxis, seed int64) fault.ChurnSpec {
	return fault.ChurnSpec{Kind: s.Kind, Fraction: s.Fraction, RegionSize: s.RegionSize,
		Period: s.Period, Outage: s.Outage, Repeats: s.Repeats, Seed: seed}
}

func engineName(workers int) string {
	if workers >= 2 {
		return "sharded"
	}
	return "serial"
}

// simnetLayer times the grid at Parallel=1, then drives the same cells
// directly through simnet (each must reproduce its grid result). The
// difference is the sweep layer's overhead. The first cell also runs
// on the other engine.
func simnetLayer(b *bench, in panelInput) error {
	id := b.t.start("sweep.Grid.Run[p1]", 0)
	t0 := time.Now()
	rows, err := in.grid.Collect(context.Background(), in.p1)
	gridS := time.Since(t0).Seconds()
	b.t.end(id)
	if err != nil {
		return err
	}
	b.expect(sameRows(rows, in.rows), "grid at Parallel=1 differs from the workload's rows")

	d := &direct{b: b, g: in.grid, tables: in.p1.Tables, src: in.tableSrc,
		bases: map[*graph.Graph]*routing.Table{}, points: map[string]point{},
		protos: map[*graph.Graph]*simnet.Network{}, warmed: map[*simnet.Network]bool{}, maps: map[int]traffic.Mapping{}}
	eng := engineName(in.p1.Workers)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var hops, simBytes float64
	for _, r := range in.rows {
		st, err := d.run(r.Cell, in.p1.Workers, "simnet.RunLoad."+eng)
		if err != nil {
			return err
		}
		b.expect(st.Equal(r.Stats), "cell %d: direct simnet run differs from the grid", r.Index)
		hops += float64(st.TotalHops)
		simBytes = max(simBytes, float64(st.MemoryBytes))
	}
	runtime.ReadMemStats(&ms1)
	simS := b.t.total("simnet.RunLoad." + eng)
	b.layer["simnet.ns_per_hop."+eng] = 1e9 * simS / hops
	b.layer["simnet.alloc_bytes_per_hop"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / hops
	b.layer["simnet.sim_mb"] = simBytes / 1e6
	b.layer["sweep.overhead_frac"] = (gridS - simS) / gridS

	otherWorkers, other := 2, "sharded"
	if in.p1.Workers >= 2 {
		otherWorkers, other = 1, "serial"
	}
	st, err := d.run(in.rows[0].Cell, otherWorkers, "simnet.RunLoad."+other)
	if err != nil {
		return err
	}
	checkRows(b, []sweep.Result{{Cell: in.rows[0].Cell, Stats: st}})
	b.layer["simnet.ns_per_hop."+other] = 1e9 * b.t.total("simnet.RunLoad."+other) / float64(st.TotalHops)
	return nil
}

// point is one sampled fault plan applied to an instance.
type point struct {
	table *routing.Table
	dead  []bool
}

// direct rebuilds grid cells outside the sweep layer — table, fault
// plan, schedule, simulator clone, seeds and mapping exactly as the
// grid derives them — and runs each through simnet.Network.RunLoad.
type direct struct {
	b      *bench
	g      *sweep.Grid
	tables routing.TableOptions
	src    *runner.Runner

	bases  map[*graph.Graph]*routing.Table
	points map[string]point
	protos map[*graph.Graph]*simnet.Network
	warmed map[*simnet.Network]bool
	maps   map[int]traffic.Mapping
}

func (d *direct) base(g *graph.Graph) *routing.Table {
	if t, ok := d.bases[g]; ok {
		return t
	}
	var t *routing.Table
	if d.src != nil {
		t = d.src.Table(g)
	} else {
		t = routing.NewTableOpts(g, d.tables)
	}
	d.bases[g] = t
	return t
}

// run simulates one cell on the given engine inside a span named name.
func (d *direct) run(c sweep.Cell, workers int, name string) (simnet.Stats, error) {
	inst := d.g.Instances[c.Instance]
	g := inst.Inst.G
	table := d.base(g)
	var dead []bool
	var sched fault.Schedule
	switch {
	case c.Schedule != "":
		for _, s := range d.g.Schedules {
			if s.Name != c.Schedule {
				continue
			}
			spec := churnSpec(s, runner.DeriveSeed(d.g.Seed, scheduleKey(inst.Name, s, c.Trial)))
			var err error
			if sched, err = spec.Schedule(g); err != nil {
				return simnet.Stats{}, err
			}
		}
	case c.Fault != "none":
		for _, f := range d.g.Faults {
			if f.Kind.String() != c.Fault || f.Fraction != c.Fraction {
				continue
			}
			key := planKey(inst.Name, f, c.Trial)
			p, ok := d.points[key]
			if !ok {
				out := fault.Plan{Kind: f.Kind, Fraction: f.Fraction, RegionSize: f.RegionSize,
					Seed: runner.DeriveSeed(d.g.Seed, key)}.Apply(g)
				p = point{table: table.Repair(out.Removed), dead: out.DeadRouters}
				d.points[key] = p
			}
			table, dead = p.table, p.dead
		}
	}
	proto, ok := d.protos[table.G]
	if !ok {
		var err error
		proto, err = simnet.New(simnet.Config{Topo: table.G, Concentration: inst.Concentration}, table)
		if err != nil {
			return simnet.Stats{}, err
		}
		d.protos[table.G] = proto
	}
	mp, ok := d.maps[proto.Endpoints()]
	if !ok {
		var err error
		if mp, err = traffic.NewMapping(d.g.Ranks, proto.Endpoints(), d.g.Seed); err != nil {
			return simnet.Stats{}, err
		}
		d.maps[proto.Endpoints()] = mp
	}
	net := func() (*simnet.Network, error) {
		nw := proto.Clone()
		nw.SetPolicy(c.Policy)
		nw.SetSeed(runner.DeriveSeed(d.g.Seed, cellKey(&c)))
		nw.SetWorkers(workers)
		if dead != nil {
			nw.SetDeadRouters(dead)
		}
		if len(sched) > 0 {
			if err := nw.SetSchedule(sched); err != nil {
				return nil, err
			}
		}
		return nw, nil
	}
	pattern := mp.PatternEndpoints(c.Pattern, d.g.Ranks)
	if workers >= 2 && !d.warmed[proto] {
		// The sharded engine memoizes its KWay shard map on the
		// prototype; build it outside the timed run.
		nw, err := net()
		if err != nil {
			return simnet.Stats{}, err
		}
		nw.RunLoad(pattern, c.Load, 1)
		d.warmed[proto] = true
	}
	nw, err := net()
	if err != nil {
		return simnet.Stats{}, fmt.Errorf("cell %d: %w", c.Index, err)
	}
	id := d.b.t.start(name, 0)
	st := nw.RunLoad(pattern, c.Load, d.g.MsgsPerRank)
	d.b.t.end(id)
	return st, nil
}

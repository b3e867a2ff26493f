package simnet

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// chordRing returns a ring of n routers plus every {i, i+2} chord —
// small, connected, and it stays connected under single-link churn.
func chordRing(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
		b.AddEdge(v, (v+2)%n)
	}
	return b.Build()
}

// hookConservation installs the change-boundary invariant check: at
// every applied topology change (between drains, where onTopo fires)
// and, via the returned func, at run end, every offered message is
// delivered, dropped, or still in flight — nothing is double-counted
// or leaks. conservation() sums over the run's shards, so the same
// hook checks every shard count.
func hookConservation(t *testing.T, nw *Network) (atEnd func()) {
	t.Helper()
	check := func(now int64, label string) {
		off, del, drop, fly := nw.conservation()
		if off != del+drop+fly {
			t.Errorf("%s (cycle %d): offered %d != delivered %d + dropped %d + in-flight %d",
				label, now, off, del, drop, fly)
		}
	}
	nw.onTopo = func(now int64) { check(now, "event boundary") }
	return func() {
		check(-1, "run end")
		_, _, drop, fly := nw.conservation()
		if fly != 0 {
			t.Errorf("run end: %d packets still in flight after drain", fly)
		}
		if nw.stats.Dropped != drop {
			t.Errorf("run end: Stats.Dropped %d != drop count %d", nw.stats.Dropped, drop)
		}
		if nw.stats.SeveredInFlight > nw.stats.Dropped {
			t.Errorf("severed %d exceeds dropped %d", nw.stats.SeveredInFlight, nw.stats.Dropped)
		}
	}
}

// downLinks reads the links currently down off the live port masks,
// each once as (u, v) with u < v.
func downLinks(nw *Network) [][2]int32 {
	var down [][2]int32
	for u, ports := range nw.live.downPort {
		for slot, w := range nw.cfg.Topo.Neighbors(u) {
			if ports[slot] && int32(u) < w {
				down = append(down, [2]int32{int32(u), w})
			}
		}
	}
	return down
}

// hookPublish installs the derivation check: every live table the run
// publishes is the one every shard routes on, and it routes exactly
// the base topology minus the links down at that moment — on every
// pair, its distances equal a fresh build over that graph in the same
// store. It returns the number of publishes so far.
func hookPublish(t *testing.T, nw *Network) (publishes func() int) {
	t.Helper()
	n := 0
	nw.onPublish = func() {
		n++
		tbl := nw.live.tbl
		for s, sh := range nw.shards {
			if sh.tbl != tbl {
				t.Fatalf("publish %d: shard %d routes on a different table", n, s)
			}
		}
		down := downLinks(nw)
		if len(down) == 0 && tbl != nw.table {
			t.Fatalf("publish %d: no link is down but the live table is not the pristine one", n)
		}
		want := routing.NewTableOpts(nw.table.G.RemoveEdges(down), routing.TableOptions{Store: nw.table.Store()})
		for v := 0; v < nw.n; v++ {
			for d := 0; d < nw.n; d++ {
				if got, w := tbl.HopDist(v, d), want.HopDist(v, d); got != w {
					t.Fatalf("publish %d (%d links down): HopDist(%d, %d) = %d, rebuild says %d", n, len(down), v, d, got, w)
				}
			}
		}
	}
	return func() int { return n }
}

// runChurnConservation is the shared body of the property test and the
// fuzz target: sample a churn schedule from the raw parameters, run a
// loaded simulation over it on one shard and on four, and require
// conservation at every change boundary and at the end, and every
// published live table against a rebuild (hookPublish). patRaw picks
// the destination rule: static uniform, or one of two that read the
// injection cycle — uniform/neighbor phases alternating every churn
// period, or a hot spot rotating every half period.
// (TestWorkerCountInvariance asserts the shard counts agree.)
func runChurnConservation(t *testing.T, seed int64, kindRaw, periodRaw, outageRaw, fracRaw, patRaw uint8) {
	g := chordRing(16)
	spec := fault.ChurnSpec{
		Kind:       []fault.Kind{fault.Links, fault.Routers, fault.Regions}[int(kindRaw)%3],
		Fraction:   float64(fracRaw%101) / 100,
		RegionSize: 3,
		Period:     int64(periodRaw)%1500 + 200,
		Outage:     0, // set below, in (0, Period)
		Repeats:    2,
		Seed:       seed,
	}
	spec.Outage = int64(outageRaw)%(spec.Period-1) + 1
	sched, err := spec.Schedule(g)
	if err != nil {
		t.Fatalf("churn spec rejected valid-by-construction params: %v", err)
	}
	tab := routing.NewTable(g)
	nw := build(t, Config{Topo: g, Concentration: 2}, tab, runConfig{seed: seed, sched: sched})
	nep, period := nw.Endpoints(), spec.Period
	pattern := []PatternFunc{
		func(_ int, _ int64, rng *rand.Rand) int { return rng.Intn(nep) },
		func(src int, now int64, rng *rand.Rand) int {
			if (now/period)%2 == 0 {
				return rng.Intn(nep)
			}
			return (src + 1) % nep
		},
		func(src int, now int64, _ *rand.Rand) int {
			return (src + int(now/(period/2))%(nep-1) + 1) % nep
		},
	}[int(patRaw)%3]
	for _, workers := range []int{0, 4} {
		nw.SetWorkers(workers)
		for _, policy := range []routing.Policy{routing.Minimal, routing.UGALL} {
			nw.SetPolicy(policy)
			atEnd := hookConservation(t, nw)
			hookPublish(t, nw)
			st := nw.RunLoad(pattern, 0.3, 8)
			atEnd()
			if st.Offered == 0 {
				t.Fatalf("workers=%d policy %v: run offered no traffic", workers, policy)
			}
		}
	}
}

func TestScheduleConservationProperty(t *testing.T) {
	for i := 0; i < 40; i++ {
		seed := int64(i)*2_654_435_761 + 11
		runChurnConservation(t, seed, uint8(i), uint8(i*13), uint8(i*29), uint8(i*37), uint8(i/3))
	}
}

// FuzzScheduleConservation is the tentpole acceptance fuzz target:
// conservation must hold under arbitrary churn schedules, for static
// and time-varying traffic alike.
func FuzzScheduleConservation(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(50), uint8(10), uint8(25), uint8(0))
	f.Add(int64(7), uint8(1), uint8(200), uint8(199), uint8(80), uint8(1))
	f.Add(int64(-3), uint8(2), uint8(0), uint8(0), uint8(100), uint8(2))
	f.Fuzz(runChurnConservation)
}

func TestScheduleEmptyMatchesNil(t *testing.T) {
	// The "empty schedule changes nothing" contract at the Stats level:
	// a non-nil empty schedule and no schedule at all are byte-identical
	// (golden files pin the same for the CLI surface).
	inst := topo.MustSlimFly(5)
	tab := routing.NewTable(inst.G)
	pattern := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(inst.G.N() * 2) }
	var got [2]Stats
	for i, sched := range []fault.Schedule{nil, {}} {
		nw := build(t, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{seed: 9, sched: sched})
		got[i] = nw.RunLoad(pattern, 0.4, 12)
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("empty schedule perturbed the run:\nnil:   %+v\nempty: %+v", got[0], got[1])
	}
}

func TestScheduleRoundTripBeforeTrafficIsLossless(t *testing.T) {
	// A cycle-0 change that cuts links and restores them in the same
	// Change (cuts apply first) flips the masks there and back before
	// any packet moves. No link is down at the first drain, so the run
	// derives no table and routes on the pristine one, and every
	// message must be delivered.
	g := chordRing(12)
	cut := [][2]int32{{0, 1}, {3, 5}, {7, 8}}
	sched := fault.Schedule{{Cycle: 0, Cut: cut, Restore: cut}}
	tab := routing.NewTable(g)
	nw := build(t, Config{Topo: g, Concentration: 2}, tab, runConfig{seed: 3, sched: sched})
	atEnd := hookConservation(t, nw)
	hookPublish(t, nw)
	st := nw.RunLoad(func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }, 0.3, 10)
	atEnd()
	if nw.live.tbl != nw.table || nw.tbl != nw.table || nw.live.peak != 0 {
		t.Fatal("a cut and restore of the same links derived a table")
	}
	if st.Dropped != 0 || st.SeveredInFlight != 0 {
		t.Fatalf("lossless round trip dropped %d (severed %d)", st.Dropped, st.SeveredInFlight)
	}
	if st.Delivered != st.Offered {
		t.Fatalf("delivered %d of %d offered", st.Delivered, st.Offered)
	}
}

func TestChurnRestoringEveryLinkEndsOnPristineTable(t *testing.T) {
	// Every churn outage ends with a change that restores all its
	// links. With traffic past the last restore, the run must end
	// routing on the pristine instance table itself, not on a rebuild
	// of the intact topology, and still count the outages' tables in
	// MemoryBytes.
	g := chordRing(16)
	sched, err := fault.ChurnSpec{Kind: fault.Links, Fraction: 0.1, Period: 300, Outage: 120, Repeats: 3, Seed: 5}.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	last := sched[len(sched)-1].Cycle
	tab := routing.NewTable(g)
	nw := build(t, Config{Topo: g, Concentration: 2}, tab, runConfig{seed: 8, sched: sched})
	for _, workers := range []int{0, 4} {
		nw.SetWorkers(workers)
		atEnd := hookConservation(t, nw)
		publishes := hookPublish(t, nw)
		st := nw.RunLoad(uniformPattern(nw.Endpoints()), 0.3, 40)
		atEnd()
		if st.Makespan <= last {
			t.Fatalf("workers=%d: traffic ended at %d, before the last restore at %d", workers, st.Makespan, last)
		}
		if nw.live.tbl != nw.table {
			t.Errorf("workers=%d: run ended on a rebuilt table, not the pristine one", workers)
		}
		// Three outages derive a damaged table each, three restores
		// return to the pristine one.
		if got := publishes(); got != 6 {
			t.Errorf("workers=%d: %d tables published, want 6", workers, got)
		}
		if nw.live.peak != tab.MemoryBytes() {
			t.Errorf("workers=%d: live peak %d B, want the %d B of a dense table", workers, nw.live.peak, tab.MemoryBytes())
		}
	}
}

func TestScheduleAfterTrafficDerivesNothing(t *testing.T) {
	// Every change falls after the last delivery: the run loop applies
	// them to the masks once the event stream has dried up, derives no
	// table, and MemoryBytes counts the masks and nothing more.
	g := chordRing(16)
	cut := [][2]int32{{0, 1}, {4, 6}, {9, 10}}
	sched := fault.Schedule{
		{Cycle: 1_000_000, Cut: cut, Kill: []int32{3}},
		{Cycle: 2_000_000, Restore: cut[:1]},
	}
	tab := routing.NewTable(g)
	nw := build(t, Config{Topo: g, Concentration: 2}, tab, runConfig{seed: 2, sched: sched})
	for _, workers := range []int{0, 4} {
		nw.SetWorkers(workers)
		atEnd := hookConservation(t, nw)
		publishes := hookPublish(t, nw)
		st := nw.RunLoad(uniformPattern(nw.Endpoints()), 0.3, 10)
		atEnd()
		if st.Makespan >= sched[0].Cycle || st.Dropped != 0 {
			t.Fatalf("workers=%d: traffic reached the schedule (makespan %d, dropped %d)", workers, st.Makespan, st.Dropped)
		}
		if len(downLinks(nw)) != 2 || !nw.live.deadRun[3] {
			t.Fatalf("workers=%d: the tail was not applied to the masks", workers)
		}
		if got := publishes(); got != 0 || nw.live.tbl != nw.table {
			t.Fatalf("workers=%d: %d tables published after the last event", workers, got)
		}
		masks := int64(g.N() + 2*g.M())
		live := nw.live
		nw.live = nil
		rest := nw.MemoryBytes()
		nw.live = live
		if st.MemoryBytes != rest+masks {
			t.Errorf("workers=%d: MemoryBytes %d, want %d (run state) + %d (masks)", workers, st.MemoryBytes, rest, masks)
		}
	}
}

func TestSeveredInFlightAccounting(t *testing.T) {
	// Kill a third of the routers mid-run under heavy load and never
	// bring them back: some packets are bound to be caught in flight,
	// and every severed packet must show up in both SeveredInFlight and
	// Dropped.
	g := chordRing(18)
	var kill []int32
	var cut [][2]int32
	for r := int32(0); r < 6; r++ {
		kill = append(kill, r*3)
		for _, w := range g.Neighbors(int(r * 3)) {
			u, v := r*3, w
			if u > v {
				u, v = v, u
			}
			cut = append(cut, [2]int32{u, v})
		}
	}
	sched := fault.Schedule{{Cycle: 400, Cut: cut, Kill: kill}}
	tab := routing.NewTable(g)
	nw := build(t, Config{Topo: g, Concentration: 2}, tab, runConfig{seed: 12, sched: sched})
	atEnd := hookConservation(t, nw)
	st := nw.RunLoad(func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nw.Endpoints()) }, 0.8, 30)
	atEnd()
	if st.SeveredInFlight == 0 {
		t.Fatal("mass mid-run kill severed no packets (timing or accounting broken)")
	}
	if st.Dropped < st.SeveredInFlight {
		t.Fatalf("dropped %d < severed %d", st.Dropped, st.SeveredInFlight)
	}
	if st.Delivered == 0 {
		t.Fatal("surviving routers delivered nothing")
	}
}

func TestRewiringScheduleUnderShiftingTraffic(t *testing.T) {
	// The exhibit's mechanics in miniature: the base topology is the
	// union of two fabric configurations, the schedule steps between
	// them, and the workload shifts phase on the same period (the
	// pattern reads the injection cycle). Conservation must hold
	// through every rewiring step.
	const n = 16
	ring := make([][2]int32, 0, n)
	for v := int32(0); v < n; v++ {
		ring = append(ring, [2]int32{v, (v + 1) % n})
	}
	var even, odd [][2]int32
	for v := int32(0); v < n; v += 2 {
		even = append(even, [2]int32{v, (v + 2) % n})
		odd = append(odd, [2]int32{v + 1, (v + 3) % n})
	}
	cfgA := append(append([][2]int32{}, ring...), even...)
	cfgB := append(append([][2]int32{}, ring...), odd...)
	const period = 1500
	sched, err := fault.Rewiring([][][2]int32{cfgA, cfgB}, period, 4)
	if err != nil {
		t.Fatal(err)
	}
	union := graph.FromEdges(n, append(append([][2]int32{}, cfgA...), cfgB...))
	tab := routing.NewTable(union)
	nw := build(t, Config{Topo: union, Concentration: 2}, tab, runConfig{seed: 21, sched: sched})
	// One shard, then four (n=16 routers caps at 4 shards).
	for _, workers := range []int{0, 4} {
		nw.SetWorkers(workers)
		atEnd := hookConservation(t, nw)
		nep := nw.Endpoints()
		st := nw.RunLoad(func(src int, now int64, rng *rand.Rand) int {
			// The hot spot rotates with the rewiring phase.
			shift := int(now/period)%4 + 1
			return (src + shift*3) % nep
		}, 0.3, 20)
		atEnd()
		if st.Delivered == 0 {
			t.Fatalf("workers=%d: rewiring run delivered nothing", workers)
		}
	}
}

func TestSetScheduleRejectsInvalid(t *testing.T) {
	g := chordRing(8)
	nw := build(t, Config{Topo: g}, routing.NewTable(g), runConfig{})
	bad := fault.Schedule{{Cycle: 5, Cut: [][2]int32{{0, 4}}}} // not an edge
	if err := nw.SetSchedule(bad); err == nil {
		t.Error("SetSchedule accepted a schedule cutting a non-edge")
	}
	if len(nw.run.sched) != 0 {
		t.Error("rejected schedule was installed anyway")
	}
	good := fault.Schedule{{Cycle: 5, Cut: [][2]int32{{0, 1}}}}
	if err := nw.SetSchedule(good); err != nil {
		t.Errorf("SetSchedule rejected a valid schedule: %v", err)
	}
}

func TestRunBatchesRejectsSchedule(t *testing.T) {
	g := chordRing(8)
	tab := routing.NewTable(g)
	nw := build(t, Config{Topo: g}, tab, runConfig{sched: fault.Schedule{{Cycle: 1, Kill: []int32{0}}}})
	if _, err := nw.RunBatches([][]Message{{{SrcEP: 0, DstEP: 1}}}); err == nil {
		t.Error("RunBatches accepted a topology-event schedule")
	}
}

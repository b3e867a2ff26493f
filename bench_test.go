package spectralfly

// One benchmark per table and figure of the paper (DESIGN.md §3).
// Each bench runs the Quick-scale driver — the same code path as
// `spectralfly <exhibit> -full`, on class-1-sized instances — so
// `go test -bench=. -benchmem` exercises every experiment end to end.

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/topo"
)

func BenchmarkTable1SizeClass1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(exp.Quick, exp.Options{Classes: []int{0}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig4Feasible(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if points, err := exp.Fig4Feasible(exp.Quick, exp.Options{MaxPQ: 300}); err != nil || len(points) == 0 {
			b.Fatal("no feasible points")
		}
	}
}

func BenchmarkFig4FeasibleSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sizes, err := exp.Fig4FeasibleSizes(exp.Quick, exp.Options{})
		if err != nil || len(sizes.LPS) == 0 {
			b.Fatal("no LPS sizes")
		}
	}
}

func BenchmarkFig4NormalizedBisection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig4NormalizedBisection(exp.Quick, exp.Options{MaxPQ: 20, MaxN: 2000})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig4RawBisection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig4RawBisection(exp.Quick, exp.Options{Classes: []int{0}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig5Failures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig5(exp.Quick, exp.Options{Classes: []int{0}})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 16 {
			b.Fatal("wrong point count")
		}
	}
}

var benchSimOpts = exp.Options{Ranks: 128, MsgsPerRank: 5, Loads: []float64{0.3}}

func BenchmarkFig6UGAL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig6(exp.Quick, benchSimOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig7Minimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig7(exp.Quick, benchSimOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 4 {
			b.Fatal("wrong point count")
		}
	}
}

func BenchmarkFig8Valiant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig8(exp.Quick, benchSimOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig9EmberMinimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig9(exp.Quick, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 16 {
			b.Fatal("wrong point count")
		}
	}
}

func BenchmarkFig10EmberUGAL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig10(exp.Quick, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 16 {
			b.Fatal("wrong point count")
		}
	}
}

func BenchmarkTable2Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table2(exp.Quick, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFig11Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig11(exp.Quick, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig3DistanceStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig3(exp.Quick, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.AblateLPSvsJellyfish(11, 7, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.JellyfishLambda-res.LPSLambda, "λ-gap")
	}
}

// Sweep-engine benchmarks: the same Fig6-shaped grid through the
// serial engine (Parallel=1) and the GOMAXPROCS worker pool
// (Parallel=0). Results are bit-identical (see exp's
// TestFig6ParallelMatchesSerial); on ≥4 cores the parallel sweep is
// expected to run ≥2× faster wall-clock.

func benchmarkSweep(b *testing.B, parallel int) {
	opts := exp.Options{
		Ranks:       256,
		MsgsPerRank: 10,
		Loads:       []float64{0.2, 0.4, 0.6},
		Parallel:    parallel,
	}
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig6(exp.Quick, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 4*4*3 {
			b.Fatalf("points %d want 48", len(points))
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, 0) }

// Resilience benchmarks: Repair (a rebuild that shares every unchanged
// row with the intact table) versus a plain NewTable on the damaged
// graph, at LPS(23,11) scale (660 routers, 7920 links), plus the
// damaged-network sweep end to end. The difference between the two is
// the cost of comparing each new row with the old one.

func damagedLPS2311(b *testing.B, frac float64) (*routing.Table, [][2]int32) {
	b.Helper()
	inst, err := topo.LPS(23, 11)
	if err != nil {
		b.Fatal(err)
	}
	out := fault.Plan{Kind: fault.Links, Fraction: frac, Seed: 1}.Apply(inst.G)
	return routing.NewTable(inst.G), out.Removed
}

func BenchmarkTableRepair(b *testing.B) {
	base, removed := damagedLPS2311(b, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := base.Repair(removed); t.Diameter() == 0 {
			b.Fatal("degenerate repair")
		}
	}
}

func BenchmarkTableRebuild(b *testing.B) {
	base, removed := damagedLPS2311(b, 0.02)
	damaged := base.G.RemoveEdges(removed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := routing.NewTable(damaged); t.Diameter() == 0 {
			b.Fatal("degenerate rebuild")
		}
	}
}

func BenchmarkResilienceSweep(b *testing.B) {
	opts := exp.Options{
		Fractions:   []float64{0.1},
		Loads:       []float64{0.3},
		Trials:      2,
		Ranks:       128,
		MsgsPerRank: 4,
	}
	for i := 0; i < b.N; i++ {
		points, err := exp.Resilience(exp.Quick, opts)
		if err != nil {
			b.Fatal(err)
		}
		// 4 topologies × (intact + 3 kinds) × 2 policies.
		if len(points) != 4*4*2 {
			b.Fatalf("points %d want 32", len(points))
		}
	}
}

// Component micro-benchmarks: the primitives the experiments lean on.

func BenchmarkBuildLPS2311(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := LPS(23, 11); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSlimFly17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SlimFly(17); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeLPS117(b *testing.B) {
	net, err := LPS(11, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := net.Analyze()
		if !m.Ramanujan {
			b.Fatal("not Ramanujan")
		}
	}
}

func BenchmarkSimulateUniformLoad(b *testing.B) {
	net, err := LPS(11, 7)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := net.Simulate(SimConfig{Concentration: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := mustRunUniform(b, sim, 0.3, 10)
		if st.Delivered == 0 {
			b.Fatal("idle run")
		}
	}
}

func BenchmarkLayoutOptimize(b *testing.B) {
	net, err := LPS(11, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := net.Layout(int64(i))
		if fp.Wire(0).Links != net.G.M() {
			b.Fatal("bad layout")
		}
	}
}

// Streaming run-loop benchmarks: the public-API view of the simnet
// memory gate (internal/simnet's TestRunLoadStreamMemoryGate measures
// streaming against the retained prealloc baseline directly). The
// sim-MB metric is Stats.MemoryBytes — the run loop's peak working set
// of event scheduler + packet arena + latency digest + port state.

func BenchmarkRunLoadStream(b *testing.B) {
	net, err := LPS(11, 7)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := net.Simulate(SimConfig{Concentration: 4, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	var st SimStats
	for i := 0; i < b.N; i++ {
		st = mustRunUniform(b, sim, 0.35, 64)
		if st.Delivered == 0 {
			b.Fatal("idle run")
		}
	}
	b.ReportMetric(float64(st.MemoryBytes)/(1<<20), "sim-MB")
}

// BenchmarkRunLoadStream40K exercises the ~40K-router rung of the
// Table II ladder through one streamed load point on the packed
// oracle: 1.28M messages whose pre-materialized form (packet + event +
// latency per message) would hold ~100 MB — the streaming loop must
// stay ≥2x below that. Building the 40K packed table takes minutes, so
// the bench only runs under SPECTRALFLY_LARGE_BENCH=1 (the CI
// large-smoke job; see also BenchmarkScaleSweep40K).
func BenchmarkRunLoadStream40K(b *testing.B) {
	if os.Getenv("SPECTRALFLY_LARGE_BENCH") == "" {
		b.Skip("set SPECTRALFLY_LARGE_BENCH=1 to run the 40K-router streaming bench")
	}
	spec := topo.TableIIScaleSpecs[2][0] // LPS rung, ~40K routers
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	tab := routing.NewTableOpts(inst.G, routing.TableOptions{Store: routing.StorePacked})
	nw, err := simnet.New(simnet.Config{Topo: inst.G, Concentration: 1}, tab)
	if err != nil {
		b.Fatal(err)
	}
	nw.SetSeed(17)
	nep := nw.Endpoints()
	pattern := simnet.Workload{Dest: func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nep) }}
	const msgs = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := nw.RunLoad(pattern, 0.15, msgs)
		if st.Delivered == 0 {
			b.Fatal("idle run")
		}
		b.ReportMetric(float64(st.MemoryBytes)/(1<<20), "sim-MB")
		// The pre-streaming loop held one packet, one queued event and
		// one retained latency per message of the run.
		legacyModel := int64(st.Offered) * (32 + 40 + 8)
		if 2*st.MemoryBytes > legacyModel {
			b.Fatalf("streaming working set %d B not ≥2x below the %d B prealloc model at the 40K class",
				st.MemoryBytes, legacyModel)
		}
	}
}

// BenchmarkRunLoadParallel40K drives the sharded run loop at the
// ~40K-router rung: a one-shard and a 4-shard run of the same load
// point, reporting the wall-clock speedup and cross-checking message
// conservation between the two. The speedup gate
// itself lives at class 1 (internal/simnet's
// TestRunLoadParallelSpeedupGate); this leg shows the engine holds up
// at the scale where a single cell dominates a sweep.
func BenchmarkRunLoadParallel40K(b *testing.B) {
	if os.Getenv("SPECTRALFLY_LARGE_BENCH") == "" {
		b.Skip("set SPECTRALFLY_LARGE_BENCH=1 to run the 40K-router parallel bench")
	}
	spec := topo.TableIIScaleSpecs[2][0] // LPS rung, ~40K routers
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	tab := routing.NewTableOpts(inst.G, routing.TableOptions{Store: routing.StorePacked})
	mk := func(workers int) *simnet.Network {
		nw, err := simnet.New(simnet.Config{Topo: inst.G, Concentration: 1}, tab)
		if err != nil {
			b.Fatal(err)
		}
		nw.SetSeed(17)
		nw.SetWorkers(workers)
		return nw
	}
	serNet, parNet := mk(1), mk(4)
	nep := serNet.Endpoints()
	pattern := simnet.Workload{Dest: func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nep) }}
	const msgs = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		ser := serNet.RunLoad(pattern, 0.15, msgs)
		serDur := time.Since(start)
		start = time.Now()
		par := parNet.RunLoad(pattern, 0.15, msgs)
		parDur := time.Since(start)
		if ser.Offered != par.Offered || ser.Delivered != par.Delivered || ser.Dropped != par.Dropped {
			b.Fatalf("conservation broken at 40K: serial %d/%d/%d, parallel %d/%d/%d",
				ser.Offered, ser.Delivered, ser.Dropped, par.Offered, par.Delivered, par.Dropped)
		}
		b.ReportMetric(float64(serDur)/float64(parDur), "speedup-4w")
	}
}

// BenchmarkReconfigParallel40K drives the schedule-aware drains at the
// ~40K-router rung: the same load point as BenchmarkRunLoadParallel40K
// but with a link-churn schedule firing mid-run, one shard versus 4.
// Each run must conserve its own messages (offered = delivered +
// dropped once the run drains). The reported metric is the wall-clock
// speedup the schedule-clipped windows retain.
func BenchmarkReconfigParallel40K(b *testing.B) {
	if os.Getenv("SPECTRALFLY_LARGE_BENCH") == "" {
		b.Skip("set SPECTRALFLY_LARGE_BENCH=1 to run the 40K-router reconfig bench")
	}
	spec := topo.TableIIScaleSpecs[2][0] // LPS rung, ~40K routers
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	sched, err := fault.ChurnSpec{
		Kind: fault.Links, Fraction: 0.01,
		Period: 3000, Outage: 1500, Repeats: 3, Seed: 7,
	}.Schedule(inst.G)
	if err != nil {
		b.Fatal(err)
	}
	tab := routing.NewTableOpts(inst.G, routing.TableOptions{Store: routing.StorePacked})
	mk := func(workers int) *simnet.Network {
		nw, err := simnet.New(simnet.Config{Topo: inst.G, Concentration: 1}, tab)
		if err != nil {
			b.Fatal(err)
		}
		nw.SetSeed(17)
		nw.SetWorkers(workers)
		if err := nw.SetSchedule(sched); err != nil {
			b.Fatal(err)
		}
		return nw
	}
	serNet, parNet := mk(1), mk(4)
	nep := serNet.Endpoints()
	pattern := simnet.Workload{Dest: func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nep) }}
	const msgs = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		ser := serNet.RunLoad(pattern, 0.15, msgs)
		serDur := time.Since(start)
		start = time.Now()
		par := parNet.RunLoad(pattern, 0.15, msgs)
		parDur := time.Since(start)
		for name, st := range map[string]SimStats{"serial": ser, "parallel": par} {
			if st.Offered != st.Delivered+st.Dropped {
				b.Fatalf("%s engine leaked messages at 40K: offered %d != delivered %d + dropped %d",
					name, st.Offered, st.Delivered, st.Dropped)
			}
			if st.SeveredInFlight == 0 {
				b.Fatalf("%s engine severed nothing; churn schedule never bit", name)
			}
		}
		b.ReportMetric(float64(serDur)/float64(parDur), "speedup-4w")
	}
}

func BenchmarkScaleSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.ScaleSweep(exp.Quick, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 2 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkScaleSweep40K is the acceptance run for the large-n class:
// the ~40K-router rung of the Table II ladder through a saturation
// point and a degraded point on the packed oracle, reporting peak
// table memory (the dense design needed ~6.3 GB for the intact table
// alone; the packed budget is 1.5 GB). It takes minutes and tens of
// simulated millions of events, so it only runs when explicitly
// requested via SPECTRALFLY_LARGE_BENCH=1.
func BenchmarkScaleSweep40K(b *testing.B) {
	if os.Getenv("SPECTRALFLY_LARGE_BENCH") == "" {
		b.Skip("set SPECTRALFLY_LARGE_BENCH=1 to run the 40K-router acceptance bench")
	}
	for i := 0; i < b.N; i++ {
		points, err := exp.ScaleSweep(exp.Full, exp.Options{
			Rungs: []int{2}, // LPS(13,43) / SF(139), ~40K routers each
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(float64(p.PeakTableBytes)/(1<<20), p.Topology+"-peak-MB")
			if p.PeakTableBytes > 3<<29 { // 1.5 GB
				b.Fatalf("%s: peak table memory %d bytes exceeds the 1.5 GB class budget",
					p.Topology, p.PeakTableBytes)
			}
		}
	}
}

package exp

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// handRolledFig6 is the overhead baseline for the declarative core: it
// does by hand exactly the work a Fig6 cell needs, without internal/sweep
// — the same (topology × pattern × load) cells and seeds, the Runner
// memo (Table, Network and Recycle, Mapping) and its ordered fan-out,
// then RunLoad — and reduces the results into Fig6's points. The benchmark and gate
// below hold the generic core to within 5% of it.
func handRolledFig6(scale Scale, opts Options) ([]LoadPoint, error) {
	pol, pats := routing.UGALL, traffic.SyntheticPatterns
	opts = opts.withDefaults(scale, paperQuick, paperFull)
	instances, err := SimInstances(scale)
	if err != nil {
		return nil, err
	}
	type cell struct {
		si   sweep.Instance
		pat  traffic.Pattern
		load float64
	}
	cells := make([]cell, 0, len(instances)*len(pats)*len(opts.Loads))
	for _, si := range instances {
		for _, pat := range pats {
			for _, load := range opts.Loads {
				cells = append(cells, cell{si, pat, load})
			}
		}
	}
	type result struct {
		Stats simnet.Stats
		Err   error
	}
	results := make([]result, len(cells))
	r := runner.New(opts.Parallel)
	_ = r.RunStream(context.Background(), len(cells), func(i int) {
		c, res := cells[i], &results[i]
		nw, err := r.Network(c.si.Inst.G, c.si.Concentration)
		if err != nil {
			res.Err = err
			return
		}
		nw.SetPolicy(pol)
		nw.SetSeed(runner.DeriveSeed(opts.Seed, fmt.Sprintf("load/%s/%s/%s/%v", c.si.Name, pol, c.pat, c.load)))
		mp, err := r.Mapping(opts.Ranks, nw.Endpoints(), opts.Seed)
		if err != nil {
			res.Err = err
			return
		}
		res.Stats = nw.RunLoad(mp.PatternEndpoints(c.pat, opts.Ranks), c.load, opts.MsgsPerRank)
		r.Recycle(c.si.Inst.G, c.si.Concentration, nw)
	}, func(int) error { return nil })
	nPats, nLoads := len(pats), len(opts.Loads)
	at := func(i, p, l int) *result { return &results[(i*nPats+p)*nLoads+l] }
	dfIdx := len(instances) - 1
	points := make([]LoadPoint, 0, len(cells))
	for i, si := range instances {
		for p, pat := range pats {
			for l, load := range opts.Loads {
				res := at(i, p, l)
				if res.Err != nil {
					return nil, res.Err
				}
				baseRes := at(dfIdx, p, l)
				if baseRes.Err != nil {
					return nil, baseRes.Err
				}
				st, base := res.Stats, baseRes.Stats.MaxLatency
				sp := 0.0
				if st.MaxLatency > 0 {
					sp = float64(base) / float64(st.MaxLatency)
				}
				points = append(points, LoadPoint{
					Topology:   si.Name,
					Pattern:    pat,
					Load:       load,
					MaxLatency: st.MaxLatency,
					MeanLat:    st.MeanLatency,
					Speedup:    sp,
				})
			}
		}
	}
	return points, nil
}

// overheadOpts sizes the comparison grid: big enough that the
// simulations dominate a real sweep, small enough for CI.
var overheadOpts = Options{
	Ranks:       256,
	MsgsPerRank: 8,
	Loads:       []float64{0.2, 0.5},
}

// BenchmarkSweepOverhead compares the declarative sweep core (Fig6 is
// now a thin preset over it) against the hand-rolled baseline on the
// identical grid.
func BenchmarkSweepOverhead(b *testing.B) {
	b.Run("declarative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Fig6(Quick, overheadOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("handrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := handRolledFig6(Quick, overheadOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRunLoadStreamSweepMemoryGate is the sweep-level leg of the
// streaming-injection memory gate: every load cell of a class-1 grid
// must report a working set (Stats.MemoryBytes: event scheduler +
// packet arena + latency digest) at least 2x below what the
// pre-streaming loop retained — one arena packet, one queued event and
// one stored latency per message of the run. The accounting is
// deterministic, so the gate always arms.
func TestRunLoadStreamSweepMemoryGate(t *testing.T) {
	instances, err := SimInstances(Quick)
	if err != nil {
		t.Fatal(err)
	}
	grid := &sweep.Grid{
		Policies:    []routing.Policy{routing.UGALL},
		Patterns:    []traffic.Pattern{traffic.Random},
		Loads:       []float64{0.3},
		Measure:     sweep.MeasureLoad,
		Ranks:       512,
		MsgsPerRank: 50,
		Seed:        BaseSeed,
	}
	for _, si := range instances {
		grid.Instances = append(grid.Instances,
			sweep.Instance{Name: si.Name, Inst: si.Inst, Concentration: si.Concentration})
	}
	results, err := grid.Collect(context.Background(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		st := res.Stats
		if st.Delivered == 0 || st.MemoryBytes == 0 {
			t.Fatalf("%s: degenerate gate cell %+v", res.Topology, st)
		}
		// sizeof(packet)=32, sizeof(event)=40, one int64 latency each.
		legacyModel := int64(st.Offered) * (32 + 40 + 8)
		t.Logf("%s: streaming %d B vs prealloc model %d B (%.1fx)",
			res.Topology, st.MemoryBytes, legacyModel,
			float64(legacyModel)/float64(st.MemoryBytes))
		if 2*st.MemoryBytes > legacyModel {
			t.Errorf("%s: streaming working set %d B not ≥2x below the prealloc model %d B",
				res.Topology, st.MemoryBytes, legacyModel)
		}
	}
}

// TestSweepOverheadGate enforces the ≤5% budget of the declarative
// core over the hand-rolled driver, and that both produce identical
// points. Timing gates are noise-sensitive, so the comparison uses the
// minimum of several alternating runs and the gate only arms under
// SPECTRALFLY_BENCH_GATE=1 (set by the CI bench leg).
func TestSweepOverheadGate(t *testing.T) {
	declarative, err := Fig6(Quick, overheadOpts)
	if err != nil {
		t.Fatal(err)
	}
	handRolled, err := handRolledFig6(Quick, overheadOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(declarative, handRolled) {
		t.Fatal("declarative sweep and hand-rolled driver disagree on the Fig6 grid")
	}
	if os.Getenv("SPECTRALFLY_BENCH_GATE") == "" {
		t.Skip("timing gate armed only with SPECTRALFLY_BENCH_GATE=1 (results equality checked above)")
	}

	const reps = 5
	minD, minH := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := Fig6(Quick, overheadOpts); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < minD {
			minD = d
		}
		start = time.Now()
		if _, err := handRolledFig6(Quick, overheadOpts); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < minH {
			minH = d
		}
	}
	// 5% relative budget plus a small absolute allowance so scheduler
	// jitter on a sub-second grid cannot produce false alarms.
	budget := minH + minH/20 + 20*time.Millisecond
	t.Logf("declarative %v vs hand-rolled %v (budget %v)", minD, minH, budget)
	if minD > budget {
		t.Errorf("declarative sweep core took %v, exceeding the 5%% overhead budget %v over the hand-rolled %v",
			minD, budget, minH)
	}
}

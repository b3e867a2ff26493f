package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// invarianceCase is one run configuration of the worker-count
// invariance property.
type invarianceCase struct {
	name string
	// shards is the shard count a Workers=4 run must use: 4 where the
	// run shards, fewer where parWorkers clamps it.
	shards int
	net    func(t *testing.T) *Network
	run    func(nw *Network) Stats
	// exercised, if set, rejects a run too degenerate to test anything.
	exercised func(st Stats) bool
}

// TestWorkerCountInvariance is the one-engine property: Workers is a
// speed knob only, so every run — every policy, clamped one-shard
// configurations, timed topology schedules, per-link latencies,
// tenants, timed patterns, damaged topologies, RunBatches, and runs
// past 8,192 deliveries — produces Stats.Equal statistics (MemoryBytes
// aside: shards are real memory) for Workers 0, 1, 2, 3, 4 and 8. The
// runs reuse one Network, so shard views carried across runs and shard
// counts are covered too.
func TestWorkerCountInvariance(t *testing.T) {
	lps := topo.MustLPS(11, 7).G
	lpsTab := routing.NewTable(lps)
	ring := chordRing(24)
	ringTab := routing.NewTable(ring)
	mk := func(cfg Config, tab *routing.Table) func(t *testing.T) *Network {
		return func(t *testing.T) *Network {
			if cfg.Seed == 0 {
				cfg.Seed = 11
			}
			nw, err := New(cfg, tab)
			if err != nil {
				t.Fatal(err)
			}
			return nw
		}
	}
	withLats := func(f func(t *testing.T) *Network, lats *LinkLatencies) func(t *testing.T) *Network {
		return func(t *testing.T) *Network {
			nw := f(t)
			if err := nw.SetLinkLatencies(lats); err != nil {
				t.Fatal(err)
			}
			return nw
		}
	}
	uniform := func(load float64, msgs int) func(nw *Network) Stats {
		return func(nw *Network) Stats { return nw.RunLoad(uniformPattern(nw.Endpoints()), load, msgs) }
	}
	// The one-hop neighbor pattern at concentration 1 is the old
	// tie-free gate: unique shortest paths, no port contention.
	neighbor := func(g *graph.Graph, msgs int) func(nw *Network) Stats {
		return func(nw *Network) Stats {
			return nw.RunLoad(func(src int, rng *rand.Rand) int {
				nbs := g.Neighbors(src)
				return int(nbs[rng.Intn(len(nbs))])
			}, streamGateLoad, msgs)
		}
	}
	bigRun := func(st Stats) bool { return st.Delivered > 8192 }
	severed := func(st Stats) bool { return st.SeveredInFlight > 0 && st.Dropped > st.SeveredInFlight }

	// A schedule that kills routers and cuts their links mid-run, then
	// brings them back.
	kill := []int32{3, 29, 57, 88, 104, 131}
	var killCut [][2]int32
	seen := map[[2]int32]bool{}
	for _, r := range kill {
		for _, w := range lps.Neighbors(int(r)) {
			e := [2]int32{min(r, w), max(r, w)}
			if !seen[e] {
				seen[e] = true
				killCut = append(killCut, e)
			}
		}
	}
	killRevive := fault.Schedule{
		{Cycle: 500, Cut: killCut, Kill: kill},
		{Cycle: 1500, Restore: killCut, Revive: kill},
	}
	churn, err := fault.ChurnSpec{
		Kind: fault.Links, Fraction: 0.02,
		Period: 1500, Outage: 700, Repeats: 2, Seed: 7,
	}.Schedule(lps)
	if err != nil {
		t.Fatal(err)
	}
	// Phase-shifting traffic under the churn schedule.
	shifting := func(nw *Network) Stats {
		nep := nw.Endpoints()
		return nw.RunLoadTimed(func(src int, now int64, rng *rand.Rand) int {
			if (now/1500)%2 == 0 {
				return rng.Intn(nep)
			}
			return (src + 7) % nep
		}, streamGateLoad, 24)
	}

	// Rewiring between two fabric configurations of a 16-router union.
	const n, period = 16, 1500
	var cfgA, cfgB [][2]int32
	for v := int32(0); v < n; v++ {
		cfgA = append(cfgA, [2]int32{v, (v + 1) % n})
		cfgB = append(cfgB, [2]int32{v, (v + 1) % n})
	}
	for v := int32(0); v < n; v += 2 {
		cfgA = append(cfgA, [2]int32{v, (v + 2) % n})
		cfgB = append(cfgB, [2]int32{v + 1, (v + 3) % n})
	}
	rewire, err := fault.Rewiring([][][2]int32{cfgA, cfgB}, period, 4)
	if err != nil {
		t.Fatal(err)
	}
	union := graph.FromEdges(n, append(append([][2]int32{}, cfgA...), cfgB...))
	unionTab := routing.NewTable(union)

	dead := make([]bool, lps.N())
	for _, r := range []int{3, 17, 42, 90, 140} {
		dead[r] = true
	}

	// Two tenants plus unowned endpoints on the chord ring, under a
	// kill/revive schedule and per-link latencies.
	ofEP := make([]int32, 48)
	for ep := range ofEP {
		switch {
		case ep < 16:
			ofEP[ep] = 0
		case ep < 40:
			ofEP[ep] = 1
		default:
			ofEP[ep] = -1
		}
	}
	ringSched := fault.Schedule{
		{Cycle: 300, Cut: [][2]int32{{0, 1}, {5, 6}}, Kill: []int32{9}},
		{Cycle: 900, Restore: [][2]int32{{0, 1}, {5, 6}}, Revive: []int32{9}},
	}
	tenantNet := func(t *testing.T) *Network {
		nw := withLats(mk(Config{Topo: ring, Concentration: 2, Seed: 4, Schedule: ringSched}, ringTab), testLatTable(ring))(t)
		if err := nw.SetTenants(&TenantConfig{OfEP: ofEP, Load: []float64{0.3, 0.6}}); err != nil {
			t.Fatal(err)
		}
		return nw
	}

	// RunBatches: 16 rounds of 600 random messages.
	batches := func(nw *Network) Stats {
		rng := rand.New(rand.NewSource(5))
		rounds := make([][]Message, 16)
		for i := range rounds {
			for j := 0; j < 600; j++ {
				rounds[i] = append(rounds[i], Message{SrcEP: rng.Intn(nw.Endpoints()), DstEP: rng.Intn(nw.Endpoints())})
			}
		}
		st, err := nw.RunBatches(rounds)
		if err != nil {
			panic(err)
		}
		return st
	}

	tiny := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})

	cases := []invarianceCase{
		{name: "tie-free-neighbor", shards: 4,
			net: mk(Config{Topo: lps, Concentration: 1}, lpsTab), run: neighbor(lps, 64)},
		{name: "minimal-past-8192", shards: 4,
			net: mk(Config{Topo: lps, Concentration: 4}, lpsTab), run: uniform(0.5, 64), exercised: bigRun},
		{name: "valiant", shards: 4,
			net: mk(Config{Topo: lps, Concentration: 2, Policy: routing.Valiant}, lpsTab), run: uniform(0.35, 16)},
		{name: "ugal-l-past-8192", shards: 4,
			net: mk(Config{Topo: lps, Concentration: 4, Policy: routing.UGALL}, lpsTab), run: uniform(streamGateLoad, streamGateMsgs), exercised: bigRun},
		{name: "ugal-g", shards: 1,
			net: mk(Config{Topo: lps, Concentration: 2, Policy: routing.UGALG}, lpsTab), run: uniform(0.2, 8)},
		{name: "finite-buffers", shards: 1,
			net: mk(Config{Topo: lps, Concentration: 2, BufferPackets: 4}, lpsTab), run: uniform(0.2, 8)},
		{name: "damaged", shards: 4,
			net: mk(Config{Topo: lps, Concentration: 2, DeadRouters: dead, Policy: routing.Valiant}, lpsTab), run: uniform(0.2, 16),
			exercised: func(st Stats) bool { return st.Dropped > 0 }},
		{name: "kill-revive-schedule", shards: 4,
			net: mk(Config{Topo: lps, Concentration: 1, Schedule: killRevive}, lpsTab), run: neighbor(lps, 48), exercised: severed},
		{name: "churn-timed-pattern", shards: 4,
			net: mk(Config{Topo: lps, Concentration: 4, Schedule: churn}, lpsTab), run: shifting},
		{name: "rewiring-timed-pattern", shards: 4,
			net: mk(Config{Topo: union, Concentration: 2, Seed: 21, Schedule: rewire}, unionTab),
			run: func(nw *Network) Stats {
				nep := nw.Endpoints()
				return nw.RunLoadTimed(func(src int, now int64, rng *rand.Rand) int {
					return (src + (int(now/period)%4+1)*3) % nep
				}, 0.3, 20)
			}},
		{name: "het-latencies", shards: 4,
			net: withLats(mk(Config{Topo: lps, Concentration: 4}, lpsTab), testLatTable(lps)), run: uniform(streamGateLoad, 16)},
		{name: "het-latencies-tie-free", shards: 4,
			net: withLats(mk(Config{Topo: lps, Concentration: 1}, lpsTab), testLatTable(lps)), run: neighbor(lps, 64)},
		{name: "tenants-schedule", shards: 4,
			net: tenantNet,
			run: func(nw *Network) Stats {
				return nw.RunLoad(func(src int, rng *rand.Rand) int {
					switch {
					case src < 16:
						return rng.Intn(16)
					case src < 40:
						return 16 + rng.Intn(24)
					}
					return -1
				}, 0.4, 12)
			},
			exercised: func(st Stats) bool { return len(st.Tenants) == 2 && st.SeveredInFlight > 0 }},
		{name: "batches-past-8192", shards: 4,
			net: mk(Config{Topo: lps, Concentration: 2, Policy: routing.UGALL}, lpsTab), run: batches, exercised: bigRun},
		{name: "tiny-topology", shards: 1,
			net: mk(Config{Topo: tiny, Concentration: 2}, routing.NewTable(tiny)), run: uniform(0.3, 8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := tc.net(t)
			base := tc.run(nw)
			if base.Delivered == 0 || (tc.exercised != nil && !tc.exercised(base)) {
				t.Fatalf("degenerate run exercises nothing: %+v", base)
			}
			base.MemoryBytes = 0
			for _, w := range []int{1, 2, 3, 4, 8, 0} {
				nw.SetWorkers(w)
				st := tc.run(nw)
				if w == 4 && len(nw.shards) != tc.shards {
					t.Errorf("Workers=4 ran %d shards, want %d", len(nw.shards), tc.shards)
				}
				st.MemoryBytes = 0
				if !st.Equal(base) {
					t.Errorf("Workers=%d stats differ from Workers=0:\n%+v\n%+v", w, st, base)
				}
			}
		})
	}
}

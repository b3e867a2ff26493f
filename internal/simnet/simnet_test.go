package simnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// mustBatches runs RunBatches and fails the test on error (an
// unscheduled instance never produces one).
func mustBatches(tb testing.TB, nw *Network, rounds [][]Message) Stats {
	tb.Helper()
	st, err := nw.RunBatches(rounds)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// build returns a Network over cfg and tab with the per-run settings
// rc applied through the setters, failing the test on any error.
func build(tb testing.TB, cfg Config, tab *routing.Table, rc runConfig) *Network {
	tb.Helper()
	nw, err := New(cfg, tab)
	if err != nil {
		tb.Fatal(err)
	}
	nw.SetPolicy(rc.policy)
	nw.SetSeed(rc.seed)
	nw.SetWorkers(rc.workers)
	for _, err := range []error{
		nw.SetDeadRouters(rc.dead),
		nw.SetSchedule(rc.sched),
		nw.SetLinkLatencies(rc.lats),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return nw
}

// mustNet builds a Network over g with its own routing table.
func mustNet(t *testing.T, g *graph.Graph, conc int, rc runConfig) *Network {
	t.Helper()
	return build(t, Config{Topo: g, Concentration: conc}, routing.NewTable(g), rc)
}

func TestSingleMessageLatency(t *testing.T) {
	// Two routers, one endpoint each, one message across one hop.
	// Timeline: inject serialize S + inj link L, router latency R,
	// port serialize S + link L, router latency R (at dest), eject
	// serialize S + link L.
	g := lineGraph(2)
	nw := mustNet(t, g, 1, runConfig{seed: 1})
	st := mustBatches(t, nw, [][]Message{{{SrcEP: 0, DstEP: 1}}})
	if st.Delivered != 1 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	S, R, L := PacketFlits, RouterLatency, LinkLatency
	want := (S + L) + R + (S + L) + R + (S + L)
	if st.MaxLatency != want {
		t.Fatalf("latency %d want %d", st.MaxLatency, want)
	}
	if st.MaxVC != 1 {
		t.Fatalf("hops %d want 1", st.MaxVC)
	}
}

func TestSameRouterDelivery(t *testing.T) {
	// Two endpoints on one router: no network hop at all, so the
	// latency is injection (S + L), one router pass R and ejection
	// (S + L).
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g := b.Build()
	nw := mustNet(t, g, 2, runConfig{seed: 1})
	st := mustBatches(t, nw, [][]Message{{{SrcEP: 0, DstEP: 1}}})
	if st.Delivered != 1 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	if st.MaxVC != 0 {
		t.Fatalf("hops %d want 0", st.MaxVC)
	}
	S, R, L := PacketFlits, RouterLatency, LinkLatency
	if want := (S + L) + R + (S + L); st.MaxLatency != want {
		t.Fatalf("latency %d want %d", st.MaxLatency, want)
	}
}

func TestSerializationContention(t *testing.T) {
	// Two messages from the same endpoint must serialize through the
	// injection port: the second is delayed by exactly PacketFlits.
	g := lineGraph(2)
	nw := mustNet(t, g, 1, runConfig{seed: 1})
	st := mustBatches(t, nw, [][]Message{{
		{SrcEP: 0, DstEP: 1},
		{SrcEP: 0, DstEP: 1},
	}})
	if st.Delivered != 2 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	// First message latency X; second waits S at injection AND S at
	// every shared port... but pipelining means it follows right behind:
	// its latency is X + S.
	S, R, L := PacketFlits, RouterLatency, LinkLatency
	first := (S + L) + R + (S + L) + R + (S + L)
	if st.MaxLatency != first+S {
		t.Fatalf("second message latency %d want %d", st.MaxLatency, first+S)
	}
}

func TestHopCountsMatchShortestPaths(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	nw := mustNet(t, inst.G, 2, runConfig{seed: 3})
	// One message between far endpoints under minimal routing: hop count
	// must equal the router-level shortest-path distance.
	tab := routing.NewTable(inst.G)
	srcEP, dstEP := 0, inst.G.N()*2-1
	st := mustBatches(t, nw, [][]Message{{{SrcEP: srcEP, DstEP: dstEP}}})
	wantHops := tab.HopDist(0, inst.G.N()-1)
	if int32(st.MaxVC) != wantHops {
		t.Fatalf("hops %d want %d", st.MaxVC, wantHops)
	}
}

func TestVCBudgetMinimal(t *testing.T) {
	// §V-A: minimal routing needs at most diameter+1 VCs; the highest
	// hop index must stay ≤ diameter.
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw := build(t, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{seed: 5})
	pattern := uniformWorkload(nw.Endpoints())
	st := nw.RunLoad(pattern, 0.3, 20)
	if st.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if int(st.MaxVC) > tab.Diameter() {
		t.Errorf("minimal routing used %d hops > diameter %d", st.MaxVC, tab.Diameter())
	}
}

func TestVCBudgetValiant(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	cfg := Config{Topo: inst.G, Concentration: 2}
	nw := build(t, cfg, tab, runConfig{policy: routing.Valiant, seed: 6})
	pattern := uniformWorkload(nw.Endpoints())
	st := nw.RunLoad(pattern, 0.3, 20)
	if int(st.MaxVC) > 2*tab.Diameter() {
		t.Errorf("valiant used %d hops > 2·diameter %d", st.MaxVC, 2*tab.Diameter())
	}
	if st.ValiantTaken == 0 {
		t.Error("valiant policy never took a Valiant path")
	}
	// Valiant paths are longer on average than minimal ones.
	nwMin := build(t, cfg, tab, runConfig{policy: routing.Minimal, seed: 6})
	stMin := nwMin.RunLoad(pattern, 0.3, 20)
	if st.MeanHops <= stMin.MeanHops {
		t.Errorf("valiant mean hops %.2f should exceed minimal %.2f", st.MeanHops, stMin.MeanHops)
	}
}

func TestUGALPrefersMinimalWhenUncongested(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw := build(t, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{policy: routing.UGALL, seed: 7})
	pattern := uniformWorkload(nw.Endpoints())
	st := nw.RunLoad(pattern, 0.05, 10) // very light load
	frac := float64(st.ValiantTaken) / float64(st.Delivered)
	if frac > 0.2 {
		t.Errorf("UGAL-L took Valiant paths for %.0f%% of packets at light load", 100*frac)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw := build(t, Config{Topo: inst.G, Concentration: 4}, tab, runConfig{seed: 8})
	pattern := uniformWorkload(nw.Endpoints())
	low := nw.RunLoad(pattern, 0.1, 40)
	high := nw.RunLoad(pattern, 0.7, 40)
	if high.MeanLatency <= low.MeanLatency {
		t.Errorf("mean latency should grow with load: %.1f (70%%) vs %.1f (10%%)",
			high.MeanLatency, low.MeanLatency)
	}
}

func TestRunLoadDeterministicPerSeed(t *testing.T) {
	inst := topo.MustSlimFly(5)
	tab := routing.NewTable(inst.G)
	pattern := uniformWorkload(inst.G.N() * 2)
	mk := func() Stats {
		nw := build(t, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{seed: 42})
		return nw.RunLoad(pattern, 0.4, 25)
	}
	a, b := mk(), mk()
	if !a.Equal(b) {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", a, b)
	}
}

func TestBatchesRoundsAreSequenced(t *testing.T) {
	// Two rounds must take longer than the same messages in one round
	// can finish... at minimum, makespan(2 rounds) >= makespan(round 1).
	g := lineGraph(3)
	nw := mustNet(t, g, 1, runConfig{seed: 2})
	r1 := mustBatches(t, nw, [][]Message{{{SrcEP: 0, DstEP: 2}}})
	r2 := mustBatches(t, nw, [][]Message{
		{{SrcEP: 0, DstEP: 2}},
		{{SrcEP: 2, DstEP: 0}},
	})
	if r2.Makespan <= r1.Makespan {
		t.Errorf("two rounds (%d) should outlast one (%d)", r2.Makespan, r1.Makespan)
	}
	if r2.Delivered != 2 {
		t.Errorf("delivered %d want 2", r2.Delivered)
	}
}

func TestNewRejectsMismatchedTable(t *testing.T) {
	g1 := lineGraph(3)
	g2 := lineGraph(3)
	tab := routing.NewTable(g2)
	if _, err := New(Config{Topo: g1}, tab); err == nil {
		t.Error("mismatched table should be rejected")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil topo should be rejected")
	}
	// A negative concentration is an error, not a silent default.
	for _, c := range []int{-1, -3} {
		if _, err := New(Config{Topo: g2, Concentration: c}, tab); err == nil {
			t.Errorf("concentration %d should be rejected", c)
		}
	}
	if nw, err := New(Config{Topo: g2}, tab); err != nil || nw.Endpoints() != 3 {
		t.Errorf("concentration 0 should default to 1: %v", err)
	}
}

func TestRunLoadInvalidLoadPanics(t *testing.T) {
	g := lineGraph(2)
	tab := routing.NewTable(g)
	nw, _ := New(Config{Topo: g}, tab)
	for _, load := range []float64{0, -0.1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for load %v", load)
				}
			}()
			nw.RunLoad(Workload{Dest: func(int, int64, *rand.Rand) int { return 0 }}, load, 1)
		}()
	}
}

// TestSetPolicyPanicsOnUnknown: a policy outside the named ones is a
// caller's bug (every entry checks Valid first), not a run routed as
// Valiant.
func TestSetPolicyPanicsOnUnknown(t *testing.T) {
	nw := mustNet(t, lineGraph(2), 1, runConfig{})
	for _, p := range []routing.Policy{-1, routing.UGALG + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetPolicy(%d) did not panic", int(p))
				}
			}()
			nw.SetPolicy(p)
		}()
	}
}

// TestSetTenantsRejectsBadLoad: RunLoad panics on a tenant table that
// does not fit the instance or leaves a sender unowned, as it does on
// unsorted senders, and runs a tenant load of 0 at the run's load.
func TestSetTenantsRejectsBadLoad(t *testing.T) {
	g := lineGraph(2)
	nw := mustNet(t, g, 2, runConfig{})
	next := func(src int, _ int64, _ *rand.Rand) int { return (src + 1) % 4 }
	run := func(tc *TenantConfig, senders []int32) Stats {
		return nw.RunLoad(Workload{Senders: senders, Dest: next, Tenants: tc}, 0.5, 4)
	}
	for _, tc := range []struct {
		name    string
		cfg     TenantConfig
		senders []int32
	}{
		{"short OfEP", TenantConfig{OfEP: []int32{0, 0, 0}, Load: []float64{0.5}}, nil},
		{"long OfEP", TenantConfig{OfEP: []int32{0, 0, 0, 0, 0}, Load: []float64{0.5}}, nil},
		{"tenant id past the loads", TenantConfig{OfEP: []int32{0, 1, 0, 0}, Load: []float64{0.5}}, nil},
		{"tenant id below -1", TenantConfig{OfEP: []int32{0, -2, 0, 0}, Load: []float64{0.5}}, []int32{0}},
		{"load above 1", TenantConfig{OfEP: []int32{0, 0, 0, 0}, Load: []float64{1.5}}, nil},
		{"negative load", TenantConfig{OfEP: []int32{0, 0, 0, 0}, Load: []float64{-0.1}}, nil},
		{"NaN load", TenantConfig{OfEP: []int32{0, 0, 0, 0}, Load: []float64{math.NaN()}}, nil},
		{"unowned sender", TenantConfig{OfEP: []int32{0, -1, 0, 0}, Load: []float64{0.5}}, []int32{0, 1}},
		{"unowned endpoint sends by default", TenantConfig{OfEP: []int32{0, 0, -1, 0}, Load: []float64{0.5}}, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RunLoad accepted %+v with senders %v", tc.name, tc.cfg, tc.senders)
				}
			}()
			run(&tc.cfg, tc.senders)
		}()
	}
	owned := &TenantConfig{OfEP: []int32{0, 0, -1, 1}, Load: []float64{0, 0.5}}
	if st := run(owned, []int32{0, 1, 3}); len(st.Tenants) != 2 || st.Tenants[0].Offered != 8 || st.Tenants[1].Offered != 4 {
		t.Errorf("a tenant load of 0 with an unowned silent endpoint: %+v", st)
	}
}

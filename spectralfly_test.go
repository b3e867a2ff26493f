package spectralfly

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/spectral"
	"repro/internal/traffic"
)

// mustSimulate fails the test on a Simulate error; the happy-path
// tests all use valid configurations.
func mustSimulate(t *testing.T, n *Network, cfg SimConfig) *Sim {
	t.Helper()
	sim, err := n.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func mustDegrade(t *testing.T, n *Network, p FaultPlan) *Network {
	t.Helper()
	d, err := n.Degrade(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustRunUniform(tb testing.TB, s *Sim, load float64, msgsPerEP int) SimStats {
	tb.Helper()
	st, err := s.RunUniform(load, msgsPerEP)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func TestPublicAPILPSQuickstart(t *testing.T) {
	net, err := LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := net.Analyze()
	if m.Routers != 168 || m.Radix != 12 {
		t.Fatalf("shape: %+v", m)
	}
	if m.Diameter != 3 || m.Girth != 3 {
		t.Errorf("diameter/girth: %+v", m)
	}
	if !m.Ramanujan {
		t.Error("LPS(11,7) must be Ramanujan")
	}
	if math.Abs(m.Mu1-0.50) > 0.01 {
		t.Errorf("µ1 %.3f want 0.50", m.Mu1)
	}
	if m.Links != 168*12/2 {
		t.Errorf("links %d", m.Links)
	}
}

func TestPublicAPIAllFamilies(t *testing.T) {
	nets := []func() (*Network, error){
		func() (*Network, error) { return LPS(3, 5) },
		func() (*Network, error) { return SlimFly(5) },
		func() (*Network, error) { return BundleFly(13, 3) },
		func() (*Network, error) { return DragonFly(6) },
		func() (*Network, error) { return DragonFlyCustom(4, 2, 9) },
		func() (*Network, error) { return Jellyfish(60, 4, 1) },
	}
	for i, mk := range nets {
		net, err := mk()
		if err != nil {
			t.Errorf("family %d: %v", i, err)
			continue
		}
		m := net.Analyze()
		if !m.Connected {
			t.Errorf("%s disconnected", net.Name)
		}
		if m.Routers != net.G.N() {
			t.Errorf("%s metric mismatch", net.Name)
		}
	}
}

func TestPublicAPIBisectionBracket(t *testing.T) {
	net, err := SlimFly(7)
	if err != nil {
		t.Fatal(err)
	}
	upper, lower := net.Bisection(1)
	if lower > float64(upper)*1.0001 {
		t.Errorf("bounds cross: lower %.1f upper %d", lower, upper)
	}
	if nb := net.NormalizedBisection(1); nb <= 0 || nb > 0.5 {
		t.Errorf("normalized bisection %.3f", nb)
	}
}

// TestPublicAPIFailEdgesRejectsBadFraction pins an error, not a panic,
// for link-failure fractions outside [0, 1], NaN included.
func TestPublicAPIFailEdgesRejectsBadFraction(t *testing.T) {
	net, _ := LPS(11, 7)
	for _, f := range []float64{-0.1, 1.5, math.NaN()} {
		if failed, err := net.Degrade(PlanRandomLinks(f, 1)); err == nil || failed != nil {
			t.Errorf("fraction %v: got (%v, %v), want an error", f, failed, err)
		}
	}
}

// TestPublicAPIDegradeRejectsBadPlan pins an error, not a panic, for
// a fault plan of unknown kind or with a fraction outside [0, 1].
func TestPublicAPIDegradeRejectsBadPlan(t *testing.T) {
	net, _ := LPS(11, 7)
	for _, p := range []FaultPlan{
		PlanRandomLinks(1.5, 1),
		PlanRandomRouters(math.NaN(), 1),
		{Kind: 7, Fraction: 0.1},
	} {
		if hurt, err := net.Degrade(p); err == nil || hurt != nil {
			t.Errorf("plan %v: got (%v, %v), want an error", p, hurt, err)
		}
	}
}

// TestPublicAPIFailEdges fails random links through Degrade: the
// plan's seed drives fault.SampleLinks' shuffle of the link list, so
// the damage is exactly the sample that seed draws.
func TestPublicAPIFailEdges(t *testing.T) {
	net, _ := LPS(11, 7)
	failed := mustDegrade(t, net, PlanRandomLinks(0.2, 3))
	want := net.G.RemoveEdges(fault.SampleLinks(net.G, 0.2, rand.New(rand.NewSource(3))))
	if !slices.Equal(failed.G.Edges(), want.Edges()) {
		t.Error("Degrade removed different links than the seed's sample")
	}
	if failed.G.M() >= net.G.M() {
		t.Error("no edges removed")
	}
	fm := failed.Analyze()
	om := net.Analyze()
	if fm.Connected && fm.AvgDistance < om.AvgDistance {
		t.Error("average distance should not shrink under failures")
	}
	// Bisection must not panic on the (irregular) failed network; the
	// spectral lower bound degrades to 0 there.
	upper, lower := failed.Bisection(1)
	if upper <= 0 {
		t.Error("failed network should still have a positive cut")
	}
	if lower != 0 {
		t.Errorf("irregular graph lower bound should be 0, got %v", lower)
	}
}

// degradedPlans damage LPS(11,7) into irregular networks.
var degradedPlans = []FaultPlan{PlanRandomLinks(0.1, 1), PlanRandomRouters(0.1, 1)}

// TestPublicAPINormalizedBisectionDegraded: on an irregular network
// the cut is normalized by the surviving link count (nk/2 only holds
// for k-regular graphs), and a network with no links reports 0.
func TestPublicAPINormalizedBisectionDegraded(t *testing.T) {
	net, _ := LPS(11, 7)
	for _, p := range degradedPlans {
		hurt := mustDegrade(t, net, p)
		if _, regular := hurt.G.Regularity(); regular {
			t.Fatalf("plan %v left the network regular", p)
		}
		upper, _ := hurt.Bisection(1)
		if nb := hurt.NormalizedBisection(1); nb != float64(upper)/float64(hurt.G.M()) || nb <= 0 || nb > 0.5 {
			t.Errorf("plan %v: normalized bisection %v, cut %d of %d links", p, nb, upper, hurt.G.M())
		}
	}
	bare := mustDegrade(t, net, PlanRandomLinks(1, 1))
	if nb := bare.NormalizedBisection(1); nb != 0 {
		t.Errorf("network with no links: normalized bisection %v, want 0", nb)
	}
}

// TestPublicAPICheegerBoundsDegraded: the Cheeger bounds and the
// mixing lemma are stated for regular graphs, so an irregular network
// reports zero Cheeger bounds and zero discrepancy stats — as
// Bisection's lower bound and Analyze's other spectral fields do —
// instead of panicking or comparing against a bound of 0. The
// distance fields still describe the reachable pairs: the router kill
// disconnects the network, and its diameter is the largest finite
// distance, not 0.
func TestPublicAPICheegerBoundsDegraded(t *testing.T) {
	net, _ := LPS(11, 7)
	disconnected := false
	for _, p := range degradedPlans {
		hurt := mustDegrade(t, net, p)
		m := hurt.Analyze()
		if m.CheegerLower != 0 || m.CheegerUpper != 0 {
			t.Errorf("plan %v: Cheeger bounds [%v, %v], want [0, 0]", p, m.CheegerLower, m.CheegerUpper)
		}
		if m.Regular || m.Radix != 0 || m.Mu1 != 0 || m.Bipartite {
			t.Errorf("plan %v: irregular metrics %+v", p, m)
		}
		if m.Diameter <= 0 || m.AvgDistance <= 0 {
			t.Errorf("plan %v: diameter %d, average distance %v", p, m.Diameter, m.AvgDistance)
		}
		disconnected = disconnected || !m.Connected
		if d := hurt.Discrepancy(50, 1); d != (spectral.DiscrepancyStats{}) {
			t.Errorf("plan %v: irregular discrepancy %+v, want zero stats", p, d)
		}
	}
	if !disconnected {
		t.Error("no plan disconnected the network")
	}
}

func TestPublicAPIDegrade(t *testing.T) {
	net, _ := LPS(11, 7)
	intact := mustRunUniform(t, mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9}), 0.3, 5)
	if intact.Dropped != 0 || intact.DeliveredFraction() != 1 {
		t.Fatalf("intact network lost traffic: %+v", intact)
	}

	// Link cuts: structure degrades but (while connected) no traffic is
	// lost; latency is paid in extra hops.
	links := mustDegrade(t, net, PlanRandomLinks(0.15, 3))
	if links.G.M() >= net.G.M() || links.G.N() != net.G.N() {
		t.Fatalf("link plan: m=%d n=%d", links.G.M(), links.G.N())
	}
	lst := mustRunUniform(t, mustSimulate(t, links, SimConfig{Concentration: 2, Seed: 9}), 0.3, 5)
	if lst.Offered == 0 {
		t.Fatal("degraded sim idle")
	}
	if links.G.IsConnected() && lst.Dropped != 0 {
		t.Errorf("connected damaged network dropped %d messages", lst.Dropped)
	}
	if lst.MeanHops < intact.MeanHops {
		t.Errorf("damaged mean hops %.3f below intact %.3f", lst.MeanHops, intact.MeanHops)
	}

	// Router kills: the orphaned endpoints' traffic must be dropped and
	// accounted, and the delivered fraction lands near (1-f)^2.
	routers := mustDegrade(t, net, PlanRandomRouters(0.2, 4))
	rst := mustRunUniform(t, mustSimulate(t, routers, SimConfig{Concentration: 2, Seed: 9}), 0.3, 5)
	if rst.Dropped == 0 {
		t.Fatal("router kills lost no traffic")
	}
	if f := rst.DeliveredFraction(); f < 0.45 || f > 0.8 {
		t.Errorf("delivered fraction %.3f, want near (1-0.2)^2 = 0.64", f)
	}

	// Region outages behave like correlated router kills.
	regions := mustDegrade(t, net, PlanRegionOutage(0.25, 8, 5))
	gst := mustRunUniform(t, mustSimulate(t, regions, SimConfig{Concentration: 2, Seed: 9}), 0.3, 5)
	if gst.Dropped == 0 {
		t.Fatal("region outage lost no traffic")
	}
}

func TestPublicAPISimulation(t *testing.T) {
	net, _ := LPS(11, 7)
	sim := mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9})
	if sim.Endpoints() != 336 {
		t.Fatalf("endpoints %d", sim.Endpoints())
	}
	st := mustRunUniform(t, sim, 0.3, 10)
	if st.Delivered == 0 || st.MaxLatency <= 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	if sim.VirtualChannels() != sim.Diameter()+1 {
		t.Error("minimal VC budget")
	}
	pst, err := sim.RunPattern(PatternShuffle, 256, 0.3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Delivered == 0 {
		t.Error("pattern run idle")
	}
	mst, err := sim.RunMotif(Halo3D26{NX: 4, NY: 4, NZ: 4, Iters: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if mst.Makespan <= 0 {
		t.Error("motif produced no makespan")
	}
}

// TestPublicAPIRunPatternRejectsBadLoad pins an error, not a panic,
// for offered loads outside (0, 1], NaN included, and an error, not an
// empty run, for a negative message count.
func TestPublicAPIRunPatternRejectsBadLoad(t *testing.T) {
	net, _ := LPS(11, 7)
	sim := mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9})
	for _, load := range []float64{0, -0.1, 1.5, math.NaN()} {
		if _, err := sim.RunPattern(PatternRandom, 64, load, 2); err == nil {
			t.Errorf("load %v: RunPattern returned no error", load)
		}
	}
	if st, err := sim.RunPattern(PatternRandom, 64, 0.3, -4); err == nil {
		t.Errorf("msgs -4: RunPattern returned no error (offered %d)", st.Offered)
	}
}

// TestPublicAPIRunUniformRejectsBadLoad: RunUniform returns an error,
// not a panic, for offered loads outside (0, 1], NaN included, and an
// error, not an empty run, for a negative message count.
func TestPublicAPIRunUniformRejectsBadLoad(t *testing.T) {
	net, _ := LPS(11, 7)
	sim := mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9})
	for _, load := range []float64{0, -0.1, 1.5, math.NaN()} {
		if _, err := sim.RunUniform(load, 2); err == nil {
			t.Errorf("load %v: RunUniform returned no error", load)
		}
	}
	if st, err := sim.RunUniform(0.3, -4); err == nil {
		t.Errorf("msgs -4: RunUniform returned no error (offered %d)", st.Offered)
	}
}

// TestPublicAPISimulateRejectsBadConcentration: a negative
// concentration is an error, not a silent one endpoint per router.
func TestPublicAPISimulateRejectsBadConcentration(t *testing.T) {
	net, _ := LPS(11, 7)
	for _, c := range []int{-1, -3} {
		if sim, err := net.Simulate(SimConfig{Concentration: c}); err == nil {
			t.Errorf("concentration %d: Simulate gave %d endpoints, want an error", c, sim.Endpoints())
		}
	}
}

// TestPublicAPISimulateRejectsUnknownPolicy: a policy outside the
// Routing* constants is an error, not a run routed as Valiant.
func TestPublicAPISimulateRejectsUnknownPolicy(t *testing.T) {
	net, _ := LPS(11, 7)
	for _, pol := range []routing.Policy{RoutingMinimal - 1, RoutingUGALGlobal + 1, 7} {
		if _, err := net.Simulate(SimConfig{Concentration: 2, Policy: pol}); err == nil {
			t.Errorf("policy %d: Simulate returned no error", int(pol))
		}
	}
}

// TestPublicAPIRunPatternRejectsUnknownPattern pins an error, not a
// panic from inside the run loop, for a pattern outside the Pattern*
// constants.
func TestPublicAPIRunPatternRejectsUnknownPattern(t *testing.T) {
	net, _ := LPS(11, 7)
	sim := mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9})
	for _, pat := range []traffic.Pattern{PatternRandom - 1, PatternComplement + 1, PatternRandom + 99} {
		if _, err := sim.RunPattern(pat, 64, 0.3, 2); err == nil {
			t.Errorf("pattern %d: RunPattern returned no error", int(pat))
		}
	}
}

// TestPublicAPIRunPatternRejectsNonPowerOfTwoRanks: the bit patterns
// mask with ranks-1, so on 100 ranks BitComplement would send ranks 0
// and 4 both to rank 99. That is an error; Random runs on any count.
func TestPublicAPIRunPatternRejectsNonPowerOfTwoRanks(t *testing.T) {
	net, _ := LPS(11, 7)
	sim := mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9})
	for _, pat := range []traffic.Pattern{PatternShuffle, PatternComplement} {
		if _, err := sim.RunPattern(pat, 100, 0.3, 2); err == nil || !strings.Contains(err.Error(), "power-of-two") {
			t.Errorf("%s on 100 ranks: err %v, want a power-of-two error", pat, err)
		}
	}
	if st, err := sim.RunPattern(PatternRandom, 100, 0.3, 2); err != nil || st.Delivered == 0 {
		t.Errorf("random on 100 ranks: delivered %d, err %v", st.Delivered, err)
	}
}

func TestPublicAPIWorkersExactP99(t *testing.T) {
	net, _ := LPS(11, 7)
	// More than 8,192 deliveries: the latency digest stays exact at any
	// size, so sharding the run changes no statistic, P99 included.
	one := mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9})
	four := mustSimulate(t, net, SimConfig{Concentration: 2, Seed: 9, Workers: 4})
	a := mustRunUniform(t, one, 0.3, 30)
	b := mustRunUniform(t, four, 0.3, 30)
	if a.Delivered <= 8192 {
		t.Fatalf("run delivered %d messages, want > 8192", a.Delivered)
	}
	a.MemoryBytes, b.MemoryBytes = 0, 0
	if !a.Equal(b) {
		t.Fatalf("Workers changed the statistics:\n%+v\n%+v", a, b)
	}
	if a.P99Latency <= 0 || a.P99Latency > a.MaxLatency {
		t.Errorf("P99 %d out of range (max %d)", a.P99Latency, a.MaxLatency)
	}
	again := mustRunUniform(t, one, 0.3, 30)
	again.MemoryBytes = 0
	if !again.Equal(a) {
		t.Errorf("run not deterministic:\n%+v\n%+v", again, a)
	}
}

// TestSimMatchesSweepCell: every Sim run is the one-cell NewSweep with
// the same network, concentration, policy, axes and seed, at every
// shard count. One Sim serves all three run kinds, so later runs take
// the clones earlier runs recycled.
func TestSimMatchesSweepCell(t *testing.T) {
	net, _ := LPS(11, 7)
	halo := Halo3D26{NX: 4, NY: 4, NZ: 4, Iters: 1}
	for _, workers := range []int{1, 4} {
		sim := mustSimulate(t, net, SimConfig{Concentration: 2, Policy: RoutingUGAL, Seed: 9, Workers: workers})
		cell := func(sw *Sweep) SimStats {
			t.Helper()
			res, err := sw.Networks(net).Concentration(2).Policies(RoutingUGAL).Seed(9).Workers(workers).Collect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 {
				t.Fatalf("%d cells, want 1", len(res))
			}
			if res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
			return res[0].Stats
		}
		uniform, err := sim.RunUniform(0.3, 5)
		if err != nil {
			t.Fatal(err)
		}
		shuffle, err := sim.RunPattern(PatternShuffle, 256, 0.3, 5)
		if err != nil {
			t.Fatal(err)
		}
		motif, err := sim.RunMotif(halo, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want SimStats
		}{
			{"uniform", uniform, cell(new(Sweep).Patterns(PatternRandom).Loads(0.3).Ranks(sim.Endpoints()).MsgsPerRank(5))},
			{"shuffle", shuffle, cell(new(Sweep).Patterns(PatternShuffle).Loads(0.3).Ranks(256).MsgsPerRank(5))},
			{"motif", motif, cell(new(Sweep).Motifs(halo).Ranks(64))},
		} {
			if c.got.Delivered == 0 {
				t.Errorf("workers %d, %s: run idle", workers, c.name)
			}
			if !c.got.Equal(c.want) {
				t.Errorf("workers %d, %s: Sim\n%+v\nsweep cell\n%+v", workers, c.name, c.got, c.want)
			}
		}
	}
}

func TestPublicAPILayout(t *testing.T) {
	net, _ := LPS(11, 7)
	fp := net.Layout(4)
	ws := fp.Wire(0)
	if ws.Links != net.G.M() {
		t.Fatalf("links %d want %d", ws.Links, net.G.M())
	}
	if ws.AvgWire <= 0 || ws.PowerW <= 0 {
		t.Fatalf("degenerate wire stats %+v", ws)
	}
	seq := net.SequentialLayout().Wire(0)
	if ws.TotalWire >= seq.TotalWire {
		t.Error("optimized layout should beat sequential")
	}
	upper, _ := net.Bisection(1)
	if ppb := fp.PowerPerBandwidth(upper); ppb <= 0 {
		t.Error("power/bandwidth")
	}
	lat := fp.Latency(100)
	if lat.AvgNs <= 0 || lat.MaxNs < lat.AvgNs {
		t.Errorf("latency stats %+v", lat)
	}
	// Latency sweeps all pairs once per plan: concurrent first calls on
	// a fresh plan of the same placement share that sweep and agree
	// with the first plan, and a later call at another switch latency
	// reads the same sweep.
	fresh := &FloorPlan{net: net, place: fp.place}
	got := make([]LatencyStats, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fresh.Latency(100)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != lat {
			t.Errorf("concurrent call %d: latency %+v, want %+v", i, g, lat)
		}
	}
	if l0 := fresh.Latency(0); l0 != fp.Latency(0) || l0.AvgNs >= lat.AvgNs {
		t.Errorf("latency at 0 ns switch %+v, at 100 ns %+v", l0, lat)
	}
}

func TestPublicAPILayoutFAQ(t *testing.T) {
	net, _ := LPS(11, 7)
	faq := net.LayoutFAQ(3).Wire(0)
	seq := net.SequentialLayout().Wire(0)
	if faq.Links != net.G.M() {
		t.Fatalf("FAQ links %d want %d", faq.Links, net.G.M())
	}
	if faq.TotalWire >= seq.TotalWire {
		t.Error("FAQ layout should beat sequential placement")
	}
}

func TestPublicAPIDiagnostics(t *testing.T) {
	net, _ := LPS(11, 7)
	hist, unreach := net.DistanceHistogram()
	if unreach != 0 || len(hist) != 4 {
		t.Fatalf("distance histogram %v (unreach %d)", hist, unreach)
	}
	if d := net.Discrepancy(50, 1); d.MaxDeviation <= 0 || d.MaxDeviation > d.MixingBound+1e-9 {
		t.Errorf("discrepancy stats out of range: %+v", d)
	}
	if m := net.Analyze(); m.CheegerLower <= 0 || m.CheegerUpper < m.CheegerLower {
		t.Errorf("Cheeger bounds degenerate: [%v, %v]", m.CheegerLower, m.CheegerUpper)
	}
	vertex, edge := net.Centrality()
	if r := vertex.Ratio; r < 0.99 || r > 1.01 {
		t.Errorf("LPS vertex betweenness ratio %v should be 1 (vertex-transitive)", r)
	}
	if r := edge.Ratio; r < 0.99 {
		t.Errorf("edge betweenness ratio %v", r)
	}
}

func TestPublicAPISkyWalk(t *testing.T) {
	net, fp, err := SkyWalk(64, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Analyze().Connected {
		t.Error("SkyWalk disconnected")
	}
	if fp.Wire(0).Links != net.G.M() {
		t.Error("floor plan wired wrong")
	}
}

func TestPublicAPIValiantVsMinimalHops(t *testing.T) {
	net, _ := SlimFly(7)
	min := mustSimulate(t, net, SimConfig{Concentration: 2, Policy: RoutingMinimal, Seed: 1})
	val := mustSimulate(t, net, SimConfig{Concentration: 2, Policy: RoutingValiant, Seed: 1})
	stMin := mustRunUniform(t, min, 0.2, 15)
	stVal := mustRunUniform(t, val, 0.2, 15)
	if stVal.MeanHops <= stMin.MeanHops {
		t.Errorf("Valiant hops %.2f should exceed minimal %.2f", stVal.MeanHops, stMin.MeanHops)
	}
	if val.VirtualChannels() != 2*val.Diameter()+1 {
		t.Error("valiant VC budget")
	}
}

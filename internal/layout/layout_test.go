package layout

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/topo"
)

func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func TestNewRoomShape(t *testing.T) {
	// 168 routers → 84 cabinets; y = ⌈√(2·84/0.6)⌉ = ⌈16.73⌉ = 17.
	r := NewRoom(168)
	if r.Cabinets != 84 {
		t.Fatalf("cabinets %d want 84", r.Cabinets)
	}
	if r.Y != 17 {
		t.Errorf("Y=%d want 17", r.Y)
	}
	if r.X*r.Y < r.Cabinets {
		t.Error("grid too small for cabinets")
	}
	// Roughly square in meters.
	w := XPitch * float64(r.X)
	h := YPitch * float64(r.Y)
	if w/h > 2.5 || h/w > 2.5 {
		t.Errorf("room badly skewed: %.1fm × %.1fm", w, h)
	}
}

func TestNewRoomOddRouters(t *testing.T) {
	r := NewRoom(7)
	if r.Cabinets != 4 {
		t.Errorf("7 routers need 4 cabinets, got %d", r.Cabinets)
	}
}

func TestWireLengthModel(t *testing.T) {
	p := SequentialPlacement(8) // 4 cabinets
	// Routers 0,1 share cabinet 0.
	if w := p.WireLength(0, 1); w != IntraCabinetWire {
		t.Errorf("intra-cabinet wire %v want %v", w, IntraCabinetWire)
	}
	// Cabinet 0 and 1 positions: row-major in a Y-tall grid; both in
	// column 0 at consecutive y → 4 + 0.6.
	if w := p.WireLength(0, 2); math.Abs(w-4.6) > 1e-12 {
		t.Errorf("adjacent-cabinet wire %v want 4.6", w)
	}
	// Symmetry.
	if p.WireLength(0, 6) != p.WireLength(6, 0) {
		t.Error("wire length not symmetric")
	}
}

func TestSequentialPlacementValid(t *testing.T) {
	p := SequentialPlacement(30)
	if err := p.Validate(30); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeValidAndBetterThanSequential(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	g := inst.G
	p := Optimize(g, Options{Seed: 1, Restarts: 2, Sweeps: 4})
	if err := p.Validate(g.N()); err != nil {
		t.Fatal(err)
	}
	opt := Stats(g, p, 0)
	seq := Stats(g, SequentialPlacement(g.N()), 0)
	if opt.TotalWire >= seq.TotalWire {
		t.Errorf("optimized wire %.0f not better than sequential %.0f", opt.TotalWire, seq.TotalWire)
	}
	if opt.Links != g.M() {
		t.Errorf("links %d want %d", opt.Links, g.M())
	}
}

func TestOptimizePinsMatchingIntraCabinet(t *testing.T) {
	// The matching heuristic should put many adjacent pairs in shared
	// cabinets: the number of 2 m wires should be close to n/2.
	inst := topo.MustLPS(11, 7)
	g := inst.G
	p := Optimize(g, Options{Seed: 2, Restarts: 1, Sweeps: 2})
	intra := 0
	for _, e := range g.Edges() {
		if p.CabOf[e[0]] == p.CabOf[e[1]] {
			intra++
		}
	}
	if intra < g.N()/3 {
		t.Errorf("only %d intra-cabinet edges; matching not exploited", intra)
	}
}

// TestIntraCabinetCableCostsLinkLatency pins the reduction DESIGN §12
// relies on: a derived latency table charges the intra-cabinet cable,
// and the NIC wire, exactly the simulator's uniform LinkLatency, so
// only the links a placement made longer differ from the uniform model.
func TestIntraCabinetCableCostsLinkLatency(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	p := Optimize(g, Options{Seed: 2, Restarts: 1, Sweeps: 2})
	lat := LinkLatencies(g, p)
	if lat.NIC != simnet.LinkLatency {
		t.Errorf("NIC wire costs %d cycles, want %d", lat.NIC, simnet.LinkLatency)
	}
	intra := 0
	for r := 0; r < g.N(); r++ {
		for i, w := range g.Neighbors(r) {
			if p.CabOf[r] != p.CabOf[w] {
				continue
			}
			intra++
			if lat.Port[r][i] != simnet.LinkLatency {
				t.Fatalf("intra-cabinet link %d-%d costs %d cycles, want %d", r, w, lat.Port[r][i], simnet.LinkLatency)
			}
		}
	}
	if intra == 0 {
		t.Fatal("placement has no intra-cabinet link to check")
	}
}

func TestStatsPowerModel(t *testing.T) {
	p := SequentialPlacement(4) // 2 cabinets
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // intra-cabinet, 2m → electrical
	b.AddEdge(0, 2) // inter-cabinet 4.6m → electrical (≤ 5m)
	b.AddEdge(1, 3) // inter-cabinet 4.6m → electrical
	g := b.Build()
	ws := Stats(g, p, 0)
	if ws.Electrical != 3 || ws.Optical != 0 {
		t.Fatalf("split %d/%d want 3/0", ws.Electrical, ws.Optical)
	}
	wantP := 2 * (ElectricalPortW * 3)
	if math.Abs(ws.PowerW-wantP) > 1e-9 {
		t.Errorf("power %v want %v", ws.PowerW, wantP)
	}
	// Tight reach forces optical.
	ws = Stats(g, p, 2.0)
	if ws.Electrical != 1 || ws.Optical != 2 {
		t.Fatalf("split %d/%d want 1/2 at 2m reach", ws.Electrical, ws.Optical)
	}
}

func TestPowerPerBandwidth(t *testing.T) {
	// 1000 W over 304 links × 100 Gb/s = 32.9 mW/(Gb/s).
	got := PowerPerBandwidth(1000, 304)
	want := 1000.0 * 1000 / 30400
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("power/bw %v want %v", got, want)
	}
	if !math.IsInf(PowerPerBandwidth(10, 0), 1) {
		t.Error("zero bisection should be +Inf")
	}
}

func TestPathLatencyRing(t *testing.T) {
	// C4 on 2 cabinets: latency must scale with switch latency and
	// include cable delay.
	g := ring(4)
	p := SequentialPlacement(4)
	prof := Profile(g, p)
	l0, l100 := prof.Latency(0), prof.Latency(100)
	if l0.AvgNs <= 0 || l0.MaxNs < l0.AvgNs {
		t.Fatalf("degenerate latency stats %+v", l0)
	}
	// At zero switch latency, all latency is cable: max pair is 2 hops.
	if l100.AvgNs <= l0.AvgNs+100 {
		t.Errorf("switch latency not reflected: %v vs %v", l100.AvgNs, l0.AvgNs)
	}
	if l100.MaxNs < l0.MaxNs+200 {
		t.Errorf("max latency should include 2 hops of switch latency")
	}
}

func TestPathLatencyPicksShortWirePath(t *testing.T) {
	// Two hop-equal paths with different wire lengths: DP must choose
	// the shorter wires. Square 0-1-3, 0-2-3 where 1 is co-located with
	// 0 but 2 is far away.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 3)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	p := SequentialPlacement(6)
	// Cabinets: {0,1}, {2,3}, {4,5}. Path 0-1-3: wire 2 + 4.6 = 6.6.
	// Path 0-2-3: 4.6 + 2 = 6.6. Equal here; just verify DP result ≤
	// either option.
	st := Profile(g, p).Latency(0)
	if st.MaxNs > 5*6.61 {
		t.Errorf("max latency %v exceeds best-path bound", st.MaxNs)
	}
}

func TestOptimizeDeterministicPerSeed(t *testing.T) {
	g := ring(24)
	a := Optimize(g, Options{Seed: 5, Restarts: 2, Sweeps: 2})
	b := Optimize(g, Options{Seed: 5, Restarts: 2, Sweeps: 2})
	for i := range a.CabOf {
		if a.CabOf[i] != b.CabOf[i] {
			t.Fatal("same seed produced different cabinet assignment")
		}
	}
	for i := range a.Slot {
		if a.Slot[i] != b.Slot[i] {
			t.Fatal("same seed produced different slots")
		}
	}
}

// directLatency is the serial per-pair reference for Profile: one BFS
// and wire DP per source, every pair's latency summed in (source,
// target) order.
func directLatency(g *graph.Graph, p *Placement, switchNs float64) LatencyStats {
	n := g.N()
	dist := make([]int32, n)
	wire := make([]float64, n)
	var sum, maxNs float64
	var pairs int
	for s := 0; s < n; s++ {
		g.BFS(s, dist, nil)
		minWireDP(g, p, s, dist, wire)
		for v := 0; v < n; v++ {
			if v == s || dist[v] < 0 {
				continue
			}
			lat := float64(dist[v])*switchNs + CableDelayNsPerM*wire[v]
			sum += lat
			maxNs = math.Max(maxNs, lat)
			pairs++
		}
	}
	return LatencyStats{AvgNs: sum / float64(pairs), MaxNs: maxNs}
}

// TestProfileMatchesPathLatency checks the parallel profile's path
// latency, at every switch latency, against the serial per-pair sum.
func TestProfileMatchesPathLatency(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	g := inst.G
	p := SequentialPlacement(g.N())
	prof := Profile(g, p)
	for _, s := range []float64{0, 33, 100, 250} {
		got, want := prof.Latency(s), directLatency(g, p, s)
		if math.Abs(got.AvgNs-want.AvgNs) > 1e-6 {
			t.Errorf("s=%v: avg %v vs direct %v", s, got.AvgNs, want.AvgNs)
		}
		if math.Abs(got.MaxNs-want.MaxNs) > 1e-6 {
			t.Errorf("s=%v: max %v vs direct %v", s, got.MaxNs, want.MaxNs)
		}
	}
}

// TestProfileBitIdenticalAcrossGOMAXPROCS: per-source sums fold in
// source order, so Profile returns the same bits on every call and at
// every GOMAXPROCS (it feeds Table II and Fig. 11).
func TestProfileBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	p := SequentialPlacement(g.N())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []uint64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for call := 0; call < 3; call++ {
			pp := Profile(g, p)
			lat := pp.Latency(100)
			got := []uint64{uint64(pp.Pairs), math.Float64bits(pp.SumHops), math.Float64bits(pp.SumWire),
				math.Float64bits(lat.AvgNs), math.Float64bits(lat.MaxNs)}
			if want == nil {
				want = got
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d call %d: profile bits %x, first call %x", procs, call, got, want)
			}
		}
	}
}

func TestParetoEnvelopeSmall(t *testing.T) {
	set := addPareto(nil, 2, 10)
	set = addPareto(set, 3, 5)
	set = addPareto(set, 1, 3) // dominated by (2,10)? no: 1<2 but 3<10 → dominated by both? (2,10): 2≥1 and 10≥3 → dominated
	if len(set) != 2 {
		t.Fatalf("envelope %v want 2 points", set)
	}
	set = addPareto(set, 4, 20) // dominates everything
	if len(set) != 1 || set[0] != [2]float64{4, 20} {
		t.Fatalf("envelope %v want [[4 20]]", set)
	}
}

func TestRouterDistanceMatchesWireLength(t *testing.T) {
	p := SequentialPlacement(10)
	if p.RouterDistance(0, 7) != p.WireLength(0, 7) {
		t.Error("RouterDistance should alias WireLength")
	}
}

func TestTable2LinkCountIdentity(t *testing.T) {
	// Table II total links = nk/2 (e.g. LPS(11,7): 168·12/2 = 1008,
	// the paper lists 249+758 = 1007 ≈ nk/2).
	inst := topo.MustLPS(11, 7)
	p := Optimize(inst.G, Options{Seed: 3, Restarts: 1, Sweeps: 2})
	ws := Stats(inst.G, p, 0)
	if ws.Links != 1008 {
		t.Errorf("links %d want 1008", ws.Links)
	}
	if ws.Electrical+ws.Optical != ws.Links {
		t.Error("electrical+optical != links")
	}
}

package routing

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

func ring(n int) *graph.Graph {
	return circulant(n, 1)
}

// circulant returns the circulant graph on n vertices joining each i
// to i±j for every jump j.
func circulant(n int, jumps ...int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for _, j := range jumps {
			b.AddEdge(i, (i+j)%n)
		}
	}
	return b.Build()
}

// nextHops returns the neighbours of v one hop closer to dest, in slot
// order.
func nextHops(tab *Table, v, dest int) []int32 {
	hops := tab.nextHopSlots(v, dest, nil)
	for i, s := range hops {
		hops[i] = tab.G.Neighbors(v)[s]
	}
	return hops
}

// samplePath walks from src to dest by NextHopSlot draws, as the
// simulator forwards a minimal-routed packet, and returns the routers
// it visits, both ends included, or nil when dest is unreachable.
func samplePath(tab *Table, src, dest int, rng *rand.Rand) []int32 {
	if tab.HopDist(src, dest) < 0 {
		return nil
	}
	path := []int32{int32(src)}
	for v := src; v != dest; {
		slot := tab.NextHopSlot(v, dest, rng)
		if slot < 0 {
			return nil
		}
		v = int(tab.G.Neighbors(v)[slot])
		path = append(path, int32(v))
	}
	return path
}

func TestTableDistancesOnCycle(t *testing.T) {
	g := ring(10)
	tab := NewTable(g)
	if tab.Diameter() != 5 {
		t.Fatalf("diameter %d want 5", tab.Diameter())
	}
	if d := tab.HopDist(0, 3); d != 3 {
		t.Errorf("HopDist(0,3)=%d", d)
	}
	if d := tab.HopDist(0, 7); d != 3 {
		t.Errorf("HopDist(0,7)=%d", d)
	}
}

func TestNextHopsEqualCost(t *testing.T) {
	// On C_10, the antipodal destination has two equal-cost next hops.
	g := ring(10)
	tab := NewTable(g)
	hops := nextHops(tab, 0, 5)
	if len(hops) != 2 {
		t.Fatalf("next hops to antipode: %v, want 2 options", hops)
	}
	hops = nextHops(tab, 0, 3)
	if len(hops) != 1 || hops[0] != 1 {
		t.Fatalf("next hops to 3: %v, want [1]", hops)
	}
}

func TestNextHopRandomUniform(t *testing.T) {
	g := ring(10)
	tab := NewTable(g)
	rng := rand.New(rand.NewSource(1))
	counts := map[int32]int{}
	for i := 0; i < 2000; i++ {
		counts[tab.NextHopRandom(0, 5, rng)]++
	}
	if len(counts) != 2 {
		t.Fatalf("expected 2 distinct next hops, got %v", counts)
	}
	for hop, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("hop %d chosen %d/2000 times; not uniform", hop, c)
		}
	}
}

func TestNextHopAtDestination(t *testing.T) {
	g := ring(6)
	tab := NewTable(g)
	if hop := tab.NextHopRandom(2, 2, rand.New(rand.NewSource(1))); hop != -1 {
		t.Errorf("next hop at destination should be -1, got %d", hop)
	}
	if hops := nextHops(tab, 2, 2); len(hops) != 0 {
		t.Errorf("next hops at destination should be empty: %v", hops)
	}
}

func TestTableDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	tab := NewTable(b.Build())
	if d := tab.HopDist(0, 3); d != -1 {
		t.Errorf("disconnected distance %d want -1", d)
	}
	if hop := tab.NextHopRandom(0, 3, rand.New(rand.NewSource(1))); hop != -1 {
		t.Errorf("disconnected next hop %d want -1", hop)
	}
}

func TestSamplePathValid(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := NewTable(inst.G)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		src, dst := rng.Intn(inst.G.N()), rng.Intn(inst.G.N())
		path := samplePath(tab, src, dst, rng)
		if src == dst {
			if len(path) != 1 {
				t.Fatalf("self path %v", path)
			}
			continue
		}
		if int32(len(path)-1) != tab.HopDist(src, dst) {
			t.Fatalf("path length %d != dist %d", len(path)-1, tab.HopDist(src, dst))
		}
		for j := 0; j+1 < len(path); j++ {
			if !inst.G.HasEdge(int(path[j]), int(path[j+1])) {
				t.Fatalf("path step (%d,%d) not an edge", path[j], path[j+1])
			}
		}
	}
}

func TestSamplePathDiversityOnLPS(t *testing.T) {
	// §VI-C: "there is already significant path diversity in minimal
	// routing" for LPS — many source-dest pairs must have >1 shortest
	// path. Count pairs with diversity at the first hop.
	inst := MustTable(t)
	g := inst.G
	diverse, total := 0, 0
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		src, dst := rng.Intn(g.N()), rng.Intn(g.N())
		if src == dst {
			continue
		}
		total++
		if len(nextHops(inst.tab, src, dst)) > 1 {
			diverse++
		}
	}
	if float64(diverse) < 0.3*float64(total) {
		t.Errorf("only %d/%d pairs have path diversity; LPS should have many", diverse, total)
	}
}

type tabbed struct {
	G   *graph.Graph
	tab *Table
}

func MustTable(t *testing.T) tabbed {
	t.Helper()
	inst := topo.MustLPS(11, 7)
	return tabbed{inst.G, NewTable(inst.G)}
}

func TestVirtualChannels(t *testing.T) {
	if VirtualChannels(Minimal, 3) != 4 {
		t.Error("minimal VCs should be d+1")
	}
	if VirtualChannels(Valiant, 3) != 7 {
		t.Error("valiant VCs should be 2d+1")
	}
	if VirtualChannels(UGALL, 4) != 9 {
		t.Error("UGAL VCs should be 2d+1")
	}
}

func TestPolicyString(t *testing.T) {
	if Minimal.String() != "minimal" || Valiant.String() != "valiant" || UGALL.String() != "ugal-l" {
		t.Error("policy names wrong")
	}
}

func TestTableMatchesAllPairsStats(t *testing.T) {
	inst := topo.MustSlimFly(7)
	tab := NewTable(inst.G)
	st := inst.G.AllPairsStats()
	if tab.Diameter() != st.Diameter {
		t.Errorf("table diameter %d != stats %d", tab.Diameter(), st.Diameter)
	}
}

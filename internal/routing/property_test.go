package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func randomConnectedGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(50)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
		b.AddEdge(v, rng.Intn(n))
	}
	return b.Build()
}

func TestPropertySamplePathLengthMatchesDistance(t *testing.T) {
	f := func(seed int64) bool {
		g := randomConnectedGraph(seed)
		for _, store := range allStores {
			tab := newTestTable(g, store)
			rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
			for i := 0; i < 10; i++ {
				s, d := rng.Intn(g.N()), rng.Intn(g.N())
				path := samplePath(tab, s, d, rng)
				if int32(len(path)-1) != tab.HopDist(s, d) {
					return false
				}
				for j := 0; j+1 < len(path); j++ {
					if !g.HasEdge(int(path[j]), int(path[j+1])) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNextHopsStrictlyDecreaseDistance(t *testing.T) {
	f := func(seed int64) bool {
		g := randomConnectedGraph(seed)
		for _, store := range allStores {
			tab := newTestTable(g, store)
			rng := rand.New(rand.NewSource(seed ^ 0x2222))
			for i := 0; i < 10; i++ {
				v, d := rng.Intn(g.N()), rng.Intn(g.N())
				for _, h := range nextHops(tab, v, d) {
					if tab.HopDist(int(h), d) != tab.HopDist(v, d)-1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTableDiameterEqualsMaxDistance(t *testing.T) {
	f := func(seed int64) bool {
		g := randomConnectedGraph(seed)
		for _, store := range allStores {
			tab := newTestTable(g, store)
			max := int32(0)
			for v := 0; v < g.N(); v++ {
				for d := 0; d < g.N(); d++ {
					if x := tab.HopDist(v, d); x > max {
						max = x
					}
				}
			}
			if int(max) != tab.Diameter() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

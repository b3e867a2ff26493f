package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func randomConnectedGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(60)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n) // ring backbone keeps it connected
		for i := 0; i < 2; i++ {
			b.AddEdge(v, rng.Intn(n))
		}
	}
	return b.Build()
}

func TestBisectPropertyBalancedAndConsistent(t *testing.T) {
	f := func(seed int64) bool {
		g := randomConnectedGraph(seed)
		res := Bisect(g, Options{Seed: seed, Trials: 2})
		// Reported cut must equal the real cut of the returned sides.
		if g.CutSize(res.Side) != res.Cut {
			return false
		}
		// Balance within one vertex.
		c0 := 0
		for _, s := range res.Side {
			if s == 0 {
				c0++
			}
		}
		diff := 2*c0 - g.N()
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBisectPropertyCutWithinEdgeCount(t *testing.T) {
	f := func(seed int64) bool {
		g := randomConnectedGraph(seed)
		res := Bisect(g, Options{Seed: seed, Trials: 2})
		return res.Cut >= 0 && res.Cut <= g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBisectPropertyMoreTrialsNeverWorse(t *testing.T) {
	// Best-of-trials is monotone: more trials with the same seed base
	// can only match or improve the cut (the trial set is a superset).
	f := func(seed int64) bool {
		g := randomConnectedGraph(seed)
		few := Bisect(g, Options{Seed: seed, Trials: 2}).Cut
		many := Bisect(g, Options{Seed: seed, Trials: 8}).Cut
		return many <= few
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// FuzzBisect decodes a small graph from the input — the first byte
// sets n ≤ 48, each following byte pair is an edge — and checks that
// Bisect's cut equals a recount of its sides, that the sides balance
// within one vertex, that a second run with the same seed returns the
// same bisection, and that KWay parts hold within ±10% of n/k (plus
// one vertex of rounding) for k = 2, 3 and 5.
func FuzzBisect(f *testing.F) {
	f.Add([]byte{12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 6, 0, 6}, int64(1))
	f.Add([]byte{33, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 30, 31, 32, 0, 17, 18}, int64(7))
	f.Add([]byte{48, 0, 47, 5, 9, 9, 12, 40, 41, 41, 42, 42, 40, 3, 3}, int64(-3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%48
		b := graph.NewBuilder(n)
		for i := 1; i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
		g := b.Build()

		opts := Options{Seed: seed, Trials: 2}
		res := Bisect(g, opts)
		if got := g.CutSize(res.Side); got != res.Cut {
			t.Fatalf("reported cut %d, recount %d", res.Cut, got)
		}
		if c0, c1 := balanceOf(res.Side); absInt(c0-c1) > 1 {
			t.Fatalf("sides %d/%d", c0, c1)
		}
		again := Bisect(g, opts)
		if again.Cut != res.Cut || !slices.Equal(again.Side, res.Side) {
			t.Fatalf("seed %d: second run differs", seed)
		}

		for _, k := range []int{2, 3, 5} {
			counts := make([]int, k)
			for _, p := range KWay(g, k, opts) {
				counts[p]++
			}
			ideal := float64(n) / float64(k)
			for p, c := range counts {
				if math.Abs(float64(c)-ideal) > ideal*0.10+1 {
					t.Fatalf("n=%d k=%d: part %d has %d vertices (counts %v)", n, k, p, c, counts)
				}
			}
		}
	})
}

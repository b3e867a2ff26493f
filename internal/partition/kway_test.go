package partition

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

func kwayInstances(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	lps, err := topo.LPS(11, 7)
	if err != nil {
		t.Fatalf("LPS(11,7): %v", err)
	}
	sf, err := topo.SlimFly(7)
	if err != nil {
		t.Fatalf("SlimFly(7): %v", err)
	}
	return map[string]*graph.Graph{
		"lps(11,7)": lps.G,
		"sf(7)":     sf.G,
	}
}

// KWay must yield k parts balanced within ±10% of n/k — the contract
// the sharded simulator relies on for even event load per worker.
func TestKWayBalance(t *testing.T) {
	for name, g := range kwayInstances(t) {
		for _, k := range []int{2, 3, 4, 5, 8} {
			part := KWay(g, k, Options{Seed: 42, Trials: 4})
			if len(part) != g.N() {
				t.Fatalf("%s k=%d: len(part)=%d, want %d", name, k, len(part), g.N())
			}
			counts := make([]int, k)
			for v, p := range part {
				if p < 0 || int(p) >= k {
					t.Fatalf("%s k=%d: vertex %d assigned to part %d", name, k, v, p)
				}
				counts[p]++
			}
			ideal := float64(g.N()) / float64(k)
			for p, c := range counts {
				if dev := float64(c) - ideal; dev > ideal*0.10+1 || dev < -ideal*0.10-1 {
					t.Errorf("%s k=%d: part %d has %d vertices, ideal %.1f (counts %v)",
						name, k, p, c, ideal, counts)
				}
			}
		}
	}
}

// The assignment must be identical across repeated calls for a fixed
// (graph, k, seed): simnet caches it per instance and the parallel
// simulator's stats depend on it.
func TestKWayDeterministic(t *testing.T) {
	for name, g := range kwayInstances(t) {
		for _, k := range []int{3, 4} {
			a := KWay(g, k, Options{Seed: 7, Trials: 4})
			b := KWay(g, k, Options{Seed: 7, Trials: 4})
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("%s k=%d: assignment differs at vertex %d (%d vs %d)",
						name, k, v, a[v], b[v])
				}
			}
		}
	}
}

// Edge cases: k<=1 is the trivial partition, k>n degrades to one
// vertex per part.
func TestKWayEdgeCases(t *testing.T) {
	g := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})

	part := KWay(g, 1, Options{})
	for v, p := range part {
		if p != 0 {
			t.Fatalf("k=1: vertex %d in part %d", v, p)
		}
	}

	part = KWay(g, 8, Options{})
	seen := map[int32]bool{}
	for _, p := range part {
		if seen[p] {
			t.Fatalf("k>n: part %d reused (%v)", p, part)
		}
		seen[p] = true
	}

	if got := KWay(graph.FromEdges(0, nil), 4, Options{}); len(got) != 0 {
		t.Fatalf("empty graph: got %v", got)
	}
}

// BenchmarkKWay times the sharded simulator's partition of its largest
// benchmark instance: LPS(13,29), 12,180 routers, with simnet's
// options.
func BenchmarkKWay(b *testing.B) {
	lps, err := topo.LPS(13, 29)
	if err != nil {
		b.Fatalf("LPS(13,29): %v", err)
	}
	for b.Loop() {
		KWay(lps.G, 2, Options{Seed: 0x5f3759df, Trials: 2})
	}
}

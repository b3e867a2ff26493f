package graph_test

import (
	"crypto/sha256"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// TestDigestCayleyAndZero: an LPS graph carries a Cayley view, its
// RemoveEdges(nil) copy does not, and both hash the same wiring; the
// zero Graph hashes as the graph on no vertices.
func TestDigestCayleyAndZero(t *testing.T) {
	lps, err := topo.LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := lps.G
	if g.Cayley() == nil {
		t.Fatal("LPS(11,7) has no Cayley view")
	}
	want := graph.ReferenceDigest(g)
	if got := g.Digest(); got != want {
		t.Errorf("LPS(11,7) digest %x, reference %x", got, want)
	}
	if got := g.RemoveEdges(nil).Digest(); got != want {
		t.Errorf("RemoveEdges(nil) copy digest %x, want %x", got, want)
	}

	empty := sha256.Sum256(make([]byte, 8)) // N() = 0, no edges
	var zero graph.Graph
	for name, got := range map[string][32]byte{
		"zero Graph":     zero.Digest(),
		"FromEdges(0)":   graph.FromEdges(0, nil).Digest(),
		"empty Builder":  graph.NewBuilder(0).Build().Digest(),
		"zero reference": graph.ReferenceDigest(&zero),
	} {
		if got != empty {
			t.Errorf("%s digest %x, want %x", name, got, empty)
		}
	}
}

// TestDigestConcurrent: graphs are shared by the sweep's worker
// goroutines, so the first Digest of a graph may race with others on
// the graph itself and on its WithCayley copy (which shares the memo).
// Run with -race.
func TestDigestConcurrent(t *testing.T) {
	lps, err := topo.LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	plain := lps.G.RemoveEdges(nil)
	view := plain.WithCayley(lps.G.Cayley())
	want := graph.ReferenceDigest(plain)
	var wg sync.WaitGroup
	for i := range 8 {
		g := plain
		if i%2 == 1 {
			g = view
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := g.Digest(); got != want {
				t.Errorf("goroutine %d: digest %x, want %x", i, got, want)
			}
		}()
	}
	wg.Wait()
}

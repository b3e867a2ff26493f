package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// ReferenceDigest hashes N() and Edges() one 8-byte write at a time:
// the wiring digest as the sweep cache first computed it, which
// Digest must reproduce byte for byte so no cached cell is orphaned.
func ReferenceDigest(g *Graph) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.N()))
	h.Write(buf[:])
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e[0]))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e[1]))
		h.Write(buf[:])
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// sortedBuild is the Builder's former path: sort the recorded pairs,
// drop repeats, and hand the distinct edges to FromEdges.
func sortedBuild(n int, pairs [][2]int32) *Graph {
	edges := slices.Clone(pairs)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return FromEdges(n, slices.Compact(edges))
}

// fuzzBuilder decodes raw into a Builder on n vertices: each byte pair
// is one AddEdge call, so lists carry repeated and reversed pairs and
// self-loops, and vertices no pair names stay isolated.
func fuzzBuilder(n int, raw []byte) *Builder {
	b := NewBuilder(n)
	if n == 0 {
		return b
	}
	for i := 0; i+1 < len(raw); i += 2 {
		b.AddEdge(int(raw[i])%n, int(raw[i+1])%n)
	}
	return b
}

// checkBuild asserts that b.Build() is the CSR of the sort-and-dedup
// path: the same offsets, neighbour lists and edge count.
func checkBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	want := sortedBuild(b.n, b.edges)
	got := b.Build()
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.neigh, want.neigh) || got.M() != want.M() {
		t.Fatalf("Build on %d vertices from %v:\ngot  offsets %v neigh %v m %d\nwant offsets %v neigh %v m %d",
			b.n, b.edges, got.offsets, got.neigh, got.M(), want.offsets, want.neigh, want.M())
	}
	return got
}

// FuzzGraphDigest builds graphs from fuzzed edge lists (n = 0,
// isolated vertices, repeated and reversed pairs) and checks Digest
// against ReferenceDigest: equal on the first and on a repeated call,
// kept by the RemoveEdges(nil) copy and a FromEdges rebuild, and moved
// by removing any present edge. Every graph is built twice, by Build
// and by the sort-and-dedup path, which must agree.
func FuzzGraphDigest(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0, 0})
	f.Add(uint8(5), []byte{0, 1, 1, 0, 0, 1, 3, 4})
	f.Add(uint8(12), []byte{0, 1, 1, 2, 2, 3, 3, 0, 5, 5, 7, 9, 9, 7, 11, 1})
	f.Add(uint8(60), []byte("a wiring digest is computed once per graph"))
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		g := checkBuild(t, fuzzBuilder(int(n%65), raw))
		want := ReferenceDigest(g)
		if got := g.Digest(); got != want {
			t.Fatalf("Digest %x, reference %x (n=%d, m=%d)", got, want, g.N(), g.M())
		}
		if again := g.Digest(); again != want {
			t.Fatalf("second Digest %x, first %x", again, want)
		}
		if cp := g.RemoveEdges(nil).Digest(); cp != want {
			t.Fatalf("RemoveEdges(nil) digest %x, want %x", cp, want)
		}
		if re := FromEdges(g.N(), g.Edges()).Digest(); re != want {
			t.Fatalf("FromEdges rebuild digest %x, want %x", re, want)
		}
		for _, e := range g.Edges() {
			h := g.RemoveEdges([][2]int32{{e[1], e[0]}})
			if d := h.Digest(); d == want || d != ReferenceDigest(h) {
				t.Fatalf("removing %v: digest %x, reference %x, intact %x", e, d, ReferenceDigest(h), want)
			}
		}
	})
}

// TestBuildMatchesSortedBuild is the Build property on random pair
// lists dense in repeats: a few distinct pairs, each recorded many
// times in either orientation, next to isolated vertices.
func TestBuildMatchesSortedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		n := rng.Intn(40)
		b := NewBuilder(n)
		if n > 0 {
			pool := make([][2]int, 1+rng.Intn(3*n))
			for i := range pool {
				pool[i] = [2]int{rng.Intn(n), rng.Intn(n)}
			}
			for range rng.Intn(6 * n) {
				p := pool[rng.Intn(len(pool))]
				if rng.Intn(2) == 0 {
					p[0], p[1] = p[1], p[0]
				}
				b.AddEdge(p[0], p[1])
			}
		}
		checkBuild(t, b)
	}
}

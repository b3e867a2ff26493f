package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// fuzzDists decodes a distance vector in [-1, 300] from data, one cell
// per byte after the first. The low three bits of a byte pick a class
// weighted toward the width boundaries (14/15 for nibbles, 254/255 for
// bytes) and the high five bits a value within it; the first byte caps
// every cell at 14, 15, 254, 255 or 300, so each width is reached with
// the rest of the row below its boundary.
func fuzzDists(data []byte) []int32 {
	limit := []int32{nibbleMaxDist, nibbleMaxDist + 1, byteMaxDist, byteMaxDist + 1, 300}[int(data[0])%5]
	dist := make([]int32, len(data)-1)
	for i, b := range data[1:] {
		v := int32(b >> 3) // 0..31
		var d int32
		switch b & 7 {
		case 0:
			d = -1
		case 1:
			d = 14 + v&1
		case 2:
			d = 254 + v&1
		case 3:
			d = 12 + v%6 // 12..17
		case 4:
			d = 252 + v%6 // 252..257
		case 5, 6:
			d = v % 15
		default:
			d = v * 300 / 31
		}
		dist[i] = min(d, limit)
	}
	return dist
}

// FuzzEncodeRow checks the row format on decoded distance vectors, as
// a packed row and as a dense one: every cell decodes exactly, the
// width is the narrowest that fits the largest finite distance, a dense
// row's view code of each vertex is d mod 3 (3 for unreachable) with
// the tail bits of its last byte zero, and equals holds for the
// encoded vector and fails once any one cell changes.
func FuzzEncodeRow(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7}, uint16(0))
	f.Add([]byte{1, 0x09, 0x0a, 0x0b, 0x0c, 0x0d}, uint16(3))
	f.Add([]byte{2, 0x12, 0x1a, 0x14, 0x1c, 0x00}, uint16(1))
	f.Add([]byte{3, 0x12, 0x1a, 0x14, 0x1c, 0x00, 0xff, 0xf7}, uint16(6))
	f.Add([]byte{4, 0xff, 0x00, 0xf7, 0x03}, uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, flip uint16) {
		if len(data) < 2 {
			return
		}
		dist := fuzzDists(data)
		n := len(dist)
		maxd := maxDist(dist)
		var bits uint8 = 32
		switch {
		case maxd <= nibbleMaxDist:
			bits = 4
		case maxd <= byteMaxDist:
			bits = 8
		}
		changed := append([]int32(nil), dist...)
		changed[int(flip)%n]++
		for _, view := range []bool{false, true} {
			r := encodeRow(dist, view)
			if r.bits != bits || r.maxd != maxd {
				t.Fatalf("view=%v %v: %d bits, maxd %d; want %d bits, maxd %d", view, dist, r.bits, r.maxd, bits, maxd)
			}
			if len(r.cells) != (n*int(bits)+7)/8 {
				t.Fatalf("view=%v: %d cell bytes for %d %d-bit cells", view, len(r.cells), n, bits)
			}
			for v, d := range dist {
				if got := r.at(v); got != d {
					t.Fatalf("view=%v %v: at(%d) = %d, want %d", view, dist, v, got, d)
				}
			}
			if !view {
				if r.view != nil {
					t.Fatalf("packed row carries a %d-byte view", len(r.view))
				}
			} else {
				if len(r.view) != (n+3)/4 {
					t.Fatalf("dense row of %d cells has a %d-byte view", n, len(r.view))
				}
				for v := range 4 * len(r.view) {
					want := uint8(0) // tail bits past the last vertex
					if v < n {
						want = codeUnreachable
						if d := dist[v]; d >= 0 {
							want = uint8(d % 3)
						}
					}
					if got := r.code(v); got != want {
						t.Fatalf("%v: code(%d) = %d, want %d", dist, v, got, want)
					}
				}
			}
			if !r.equals(dist) {
				t.Fatalf("view=%v %v: row does not equal its own vector", view, dist)
			}
			if r.equals(changed) {
				t.Fatalf("view=%v %v: row equals the vector with cell %d changed", view, dist, int(flip)%n)
			}
		}
	})
}

// TestPropertyDensePackedAgree checks the two row stores against each
// other table-wide: on random small graphs, connected and not, and on
// long paths with a few chords (rows past the nibble and byte widths),
// dense and packed tables report the same HopDist for every pair and
// draw the same NextHopSlot for every pair from one seeded generator
// each, leaving both generators in the same state.
func TestPropertyDensePackedAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		if rng.Intn(4) == 0 {
			n := 20 + rng.Intn(281)
			b := graph.NewBuilder(n)
			for v := 0; v+1 < n; v++ {
				b.AddEdge(v, v+1)
			}
			for range rng.Intn(3) {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					b.AddEdge(u, v)
				}
			}
			g = b.Build()
		} else {
			g = randomGraph(rng, 2+rng.Intn(40), rng.Intn(60))
		}
		dense := NewTableOpts(g, TableOptions{Store: StoreDense})
		packed := NewTableOpts(g, TableOptions{Store: StorePacked})
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for d := 0; d < g.N(); d++ {
			for v := 0; v < g.N(); v++ {
				if dense.HopDist(v, d) != packed.HopDist(v, d) {
					t.Logf("seed %d: dist(%d,%d) dense %d, packed %d", seed, v, d, dense.HopDist(v, d), packed.HopDist(v, d))
					return false
				}
				if a, b := dense.NextHopSlot(v, d, r1), packed.NextHopSlot(v, d, r2); a != b {
					t.Logf("seed %d: NextHopSlot(%d,%d) dense %d, packed %d", seed, v, d, a, b)
					return false
				}
			}
		}
		return r1.Int63() == r2.Int63()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

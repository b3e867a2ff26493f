package routing

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// TestPackedRowWidths pins the width encodeRow picks, the narrowest
// that fits the largest finite distance, with and without the view a
// dense row carries: each row decodes every cell, knows its largest
// distance, equals exactly the vector it encodes, and ends its cells
// where the view begins.
func TestPackedRowWidths(t *testing.T) {
	cases := []struct {
		name string
		dist []int32
		bits uint8
	}{
		{"nibble", []int32{-1, 0, 1, 7, 14}, 4},
		{"byte", []int32{-1, 0, 15, 200, 254}, 8},
		{"wide", []int32{-1, 0, 255, 100000}, 32},
	}
	for _, c := range cases {
		for _, view := range []bool{false, true} {
			name := fmt.Sprintf("%s view=%v", c.name, view)
			r := encodeRow(c.dist, view)
			if r.bits != c.bits {
				t.Errorf("%s: encoded at %d bits, want %d", name, r.bits, c.bits)
			}
			if want := maxDist(c.dist); r.maxd != want {
				t.Errorf("%s: maxd = %d, want %d", name, r.maxd, want)
			}
			for v, want := range c.dist {
				if got := r.at(v); got != want {
					t.Errorf("%s: at(%d) = %d, want %d", name, v, got, want)
				}
			}
			if !r.equals(c.dist) {
				t.Errorf("%s: row does not equal the vector it encodes", name)
			}
			changed := append([]int32(nil), c.dist...)
			changed[len(changed)-1]--
			if r.equals(changed) {
				t.Errorf("%s: row equals a vector with a changed cell", name)
			}
			if cells := (len(c.dist)*int(c.bits) + 7) / 8; len(r.cells) != cells || cap(r.cells) != cells {
				t.Errorf("%s: %d cell bytes (capacity %d), want %d", name, len(r.cells), cap(r.cells), cells)
			}
			if (r.view != nil) != view {
				t.Errorf("%s: row carries a view %v", name, r.view != nil)
			}
		}
	}
}

// TestDenseRowView pins the 2-bit next-hop view of dense rows at each
// cell width: each vertex's code is its distance mod 3, unreachable is
// 3, four codes per byte from the low bits up, and a partial tail byte
// leaves its unused bits zero.
func TestDenseRowView(t *testing.T) {
	for _, c := range []struct {
		dist  []int32
		bits  uint8
		codes []uint8
	}{
		{[]int32{-1, 0, 1, 2, 3, 4, -1, 5}, 4, []uint8{3, 0, 1, 2, 0, 1, 3, 2}},
		{[]int32{4, -1, 0, 1, 2}, 4, []uint8{1, 3, 0, 1, 2}}, // n % 4 == 1
		{[]int32{-1}, 4, []uint8{3}},
		{[]int32{200, -1, 0, 254, 17, 15}, 8, []uint8{2, 3, 0, 2, 2, 0}},              // n % 4 == 2
		{[]int32{0, 1, 2, 3, 4, -1, 100000}, 32, []uint8{0, 1, 2, 0, 1, 3, 1}},        // n % 4 == 3
		{[]int32{255, 256, 257, -1, 0, 1, 2, 3}, 32, []uint8{0, 1, 2, 3, 0, 1, 2, 0}}, // whole bytes
		{[]int32{14, 15, 254, 255, -1, 300, 299, 13, 12}, 32, []uint8{2, 0, 2, 0, 3, 0, 2, 1, 0}},
	} {
		r := encodeRow(c.dist, true)
		if r.bits != c.bits || len(r.view) != (len(c.dist)+3)/4 {
			t.Fatalf("%v: %d-bit row with a %d-byte view, want %d bits", c.dist, r.bits, len(r.view), c.bits)
		}
		var want []uint8
		for v, code := range c.codes {
			if got := r.code(v); got != code {
				t.Errorf("%v: code(%d) = %d, want %d", c.dist, v, got, code)
			}
			if v%4 == 0 {
				want = append(want, 0)
			}
			want[v/4] |= code << (2 * (v % 4))
		}
		if string(r.view) != string(want) {
			t.Errorf("%v: view bytes %08b, want %08b", c.dist, r.view, want)
		}
		if cells := (packedRow{bits: r.bits, maxd: r.maxd, cells: r.cells}); !cells.equals(c.dist) {
			t.Errorf("%v: cells without the view decode differently", c.dist)
		}
	}
}

// TestStoreWidthFallbackOnLongPath drives the byte and nibble
// boundaries with real graphs: a 300-vertex path has distances up to
// 299, overflowing both the nibble and the byte range, and its next
// hops must still follow the distances.
func TestStoreWidthFallbackOnLongPath(t *testing.T) {
	for _, n := range []int{20, 200, 300} {
		b := graph.NewBuilder(n)
		for v := 0; v+1 < n; v++ {
			b.AddEdge(v, v+1)
		}
		g := b.Build()
		dense := NewTable(g)
		packed := NewTableOpts(g, TableOptions{Store: StorePacked})
		for d := 0; d < n; d += 7 {
			for v := 0; v < n; v++ {
				if dense.HopDist(v, d) != packed.HopDist(v, d) {
					t.Fatalf("n=%d: packed dist(%d,%d)=%d, dense=%d",
						n, v, d, packed.HopDist(v, d), dense.HopDist(v, d))
				}
			}
		}
		if dense.Diameter() != packed.Diameter() {
			t.Fatalf("n=%d: diameter %d vs %d", n, packed.Diameter(), dense.Diameter())
		}
		// Distances past 254 put rows at 32 bits: the dense table then
		// scans the mod-3 view with codes from large d, the packed one
		// its 32-bit cells.
		checkNextHopInvariant(t, dense)
		checkNextHopInvariant(t, packed)
	}
}

// TestStoreModesBitIdentical is the cross-backend oracle: on random
// graphs (connected and not), and on two random graphs joined by a
// bridge after a Repair cuts it (so the two sides become unreachable
// from each other), every read method of packed and lazy tables must
// agree with the dense table — including the RNG draw sequence of the
// randomized ones.
func TestStoreModesBitIdentical(t *testing.T) {
	for i := 0; i < 40; i++ {
		rng := rand.New(rand.NewSource(int64(i) * 7919))
		g := randomGraph(rng, 4+rng.Intn(40), rng.Intn(60))
		checkStoresAgree(t, "intact", NewTable(g),
			NewTableOpts(g, TableOptions{Store: StorePacked}), newLazy(g, 8))

		g, bridge := bridgedGraph(rng)
		cut := [][2]int32{bridge}
		dense := NewTable(g).Repair(cut)
		if dense.HopDist(int(bridge[0]), int(bridge[1])) != -1 {
			t.Fatalf("case %d: cutting bridge %v left its ends connected", i, bridge)
		}
		checkStoresAgree(t, "bridge cut", dense,
			NewTableOpts(g, TableOptions{Store: StorePacked}).Repair(cut),
			newLazy(g, 8).Repair(cut))
	}
}

// TestCayleyTableAgrees is the oracle of the Cayley store: on intact
// LPS graphs, PSL and PGL, the packed table routes through the group,
// and every read method must agree with a packed table of rows built
// over the same edges without the view (graph.FromEdges), RNG draws
// included. Repair from it must give the rows' repaired table, and
// restoring the cut links must give the intact distances back.
func TestCayleyTableAgrees(t *testing.T) {
	for _, pq := range [][2]int64{{11, 7}, {5, 7}} {
		g := topo.MustLPS(pq[0], pq[1]).G
		name := fmt.Sprintf("LPS(%d,%d)", pq[0], pq[1])
		packed := TableOptions{Store: StorePacked}
		cay := NewTableOpts(g, packed)
		ref := NewTableOpts(graph.FromEdges(g.N(), g.Edges()), packed)
		if cay.cay == nil || ref.cay != nil || cay.rows != nil {
			t.Fatalf("%s: Cayley store on the LPS graph %v, on its view-less copy %v",
				name, cay.cay != nil, ref.cay != nil)
		}
		checkStoresAgree(t, name+" intact", ref, cay)
		checkNextHopInvariant(t, cay)

		var cut [][2]int32 // real edges only, so restoring them gives g back
		for _, e := range sampleRemovals(rand.New(rand.NewSource(pq[0])), g, 0.05) {
			if g.HasEdge(int(e[0]), int(e[1])) {
				cut = append(cut, e)
			}
		}
		rep := cay.Repair(cut)
		if rep.cay != nil || rep.Store() != StorePacked {
			t.Fatalf("%s: Repair gave store %s with Cayley view %v", name, rep.Store(), rep.cay != nil)
		}
		checkStoresAgree(t, name+" repaired", ref.Repair(cut), rep)
		checkStoresAgree(t, name+" restored", ref, rep.Restore(cut))
		checkStoresAgree(t, name+" restored intact", ref, cay.Restore(nil))
	}
}

// cayleyFuzzCases are the small feasible LPS instances FuzzCayleyTable
// decodes, PSL and PGL, with a Cayley table of each and a packed table
// of rows over the same edges, built on first use.
var cayleyFuzzCases = sync.OnceValue(func() (out [][2]*Table) {
	for _, f := range topo.LPSFeasible(20) {
		if f.Vertices > 2500 {
			continue
		}
		var p, q int64
		fmt.Sscanf(f.Name, "LPS(%d,%d)", &p, &q)
		g := topo.MustLPS(p, q).G
		packed := TableOptions{Store: StorePacked}
		out = append(out, [2]*Table{NewTableOpts(g, packed),
			NewTableOpts(graph.FromEdges(g.N(), g.Edges()), packed)})
	}
	return out
})

// FuzzCayleyTable checks the Cayley store on one (instance, v, dest,
// seed) at a time against the packed rows of the same edges: distance,
// next-hop slot list, NextHopSlot's draw and the generator state it
// leaves, and the diameter.
func FuzzCayleyTable(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(1), int64(1))
	f.Add(uint8(1), uint16(77), uint16(300), int64(2))
	f.Add(uint8(5), uint16(1999), uint16(4), int64(-3))
	f.Fuzz(func(t *testing.T, inst uint8, vRaw, dRaw uint16, seed int64) {
		cases := cayleyFuzzCases()
		pair := cases[int(inst)%len(cases)]
		cay, ref := pair[0], pair[1]
		if cay.cay == nil {
			t.Fatalf("%d-vertex LPS: no Cayley store", cay.G.N())
		}
		n := cay.G.N()
		v, d := int(vRaw)%n, int(dRaw)%n
		if got, want := cay.HopDist(v, d), ref.HopDist(v, d); got != want {
			t.Fatalf("n=%d: HopDist(%d,%d) = %d, rows %d", n, v, d, got, want)
		}
		var a, b [64]int32
		if got, want := cay.nextHopSlots(v, d, a[:0]), ref.nextHopSlots(v, d, b[:0]); !slices.Equal(got, want) {
			t.Fatalf("n=%d: next-hop slots (%d,%d) = %v, rows %v", n, v, d, got, want)
		}
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		if got, want := cay.NextHopSlot(v, d, r1), ref.NextHopSlot(v, d, r2); got != want {
			t.Fatalf("n=%d: NextHopSlot(%d,%d) = %d, rows %d", n, v, d, got, want)
		}
		if r1.Int63() != r2.Int63() {
			t.Fatalf("n=%d: NextHopSlot(%d,%d) consumed the RNG differently from rows", n, v, d)
		}
		if cay.Diameter() != ref.Diameter() {
			t.Fatalf("n=%d: diameter %d, rows %d", n, cay.Diameter(), ref.Diameter())
		}
	})
}

// bridgedGraph joins two random graphs by one edge and returns the
// result and that edge, a bridge.
func bridgedGraph(rng *rand.Rand) (*graph.Graph, [2]int32) {
	a := randomGraph(rng, 2+rng.Intn(20), rng.Intn(30))
	b := randomGraph(rng, 2+rng.Intn(20), rng.Intn(30))
	na := a.N()
	bld := graph.NewBuilder(na + b.N())
	for _, e := range a.Edges() {
		bld.AddEdge(int(e[0]), int(e[1]))
	}
	for _, e := range b.Edges() {
		bld.AddEdge(na+int(e[0]), na+int(e[1]))
	}
	bridge := [2]int32{int32(rng.Intn(na)), int32(na + rng.Intn(b.N()))}
	bld.AddEdge(int(bridge[0]), int(bridge[1]))
	return bld.Build(), bridge
}

// checkStoresAgree asserts that every read method of each of others
// agrees with dense over the same graph, RNG consumption included:
// the generators must be in the same state after every NextHopRandom,
// and walks of NextHopSlot draws must visit the same routers.
func checkStoresAgree(t *testing.T, what string, dense *Table, others ...*Table) {
	t.Helper()
	n := dense.G.N()
	for _, tab := range others {
		var slots, wantSlots []int32
		for d := 0; d < n; d++ {
			for v := 0; v < n; v++ {
				if tab.HopDist(v, d) != dense.HopDist(v, d) {
					t.Fatalf("[%s %s] dist(%d,%d)=%d dense=%d", what, tab.Store(), v, d,
						tab.HopDist(v, d), dense.HopDist(v, d))
				}
				wantSlots = dense.nextHopSlots(v, d, wantSlots[:0])
				slots = tab.nextHopSlots(v, d, slots[:0])
				if !slices.Equal(slots, wantSlots) {
					t.Fatalf("[%s %s] next-hop slots (%d,%d) = %v, dense %v", what, tab.Store(), v, d, slots, wantSlots)
				}
			}
		}
		// Identical RNG consumption: same seeds must yield the same
		// sampled hops and paths, and leave the same generator state.
		r1 := rand.New(rand.NewSource(99))
		r2 := rand.New(rand.NewSource(99))
		for k := 0; k < 50; k++ {
			v, d := r1.Intn(n), r1.Intn(n)
			r2.Intn(n)
			r2.Intn(n)
			if h1, h2 := dense.NextHopRandom(v, d, r1), tab.NextHopRandom(v, d, r2); h1 != h2 {
				t.Fatalf("[%s %s] NextHopRandom(%d,%d) = %d, dense %d", what, tab.Store(), v, d, h2, h1)
			}
			if a, b := r1.Int63(), r2.Int63(); a != b {
				t.Fatalf("[%s %s] NextHopRandom(%d,%d) consumed the RNG differently from dense", what, tab.Store(), v, d)
			}
			p1 := samplePath(dense, v, d, r1)
			p2 := samplePath(tab, v, d, r2)
			if !slices.Equal(p1, p2) {
				t.Fatalf("[%s %s] sampled path (%d,%d) = %v, dense %v", what, tab.Store(), v, d, p2, p1)
			}
		}
		if tab.Diameter() != dense.Diameter() {
			t.Fatalf("[%s %s] diameter %d, dense %d", what, tab.Store(), tab.Diameter(), dense.Diameter())
		}
	}
}

func TestLazyWorkingSetBounded(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	n := inst.G.N()
	const wsCap = 16
	tab := newLazy(inst.G, wsCap)
	if got := tab.lazy.residentRows(); got != 0 {
		t.Fatalf("fresh lazy table has %d resident rows, want 0", got)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4*n; i++ {
		v, d := rng.Intn(n), rng.Intn(n)
		if tab.HopDist(v, d) < 0 {
			t.Fatalf("unreachable pair in connected graph")
		}
		if got := tab.lazy.residentRows(); got > wsCap {
			t.Fatalf("working set %d exceeds cap %d", got, wsCap)
		}
	}
	if got := tab.lazy.residentRows(); got != wsCap {
		t.Fatalf("working set %d after touching all destinations, want full cap %d", got, wsCap)
	}
	// Memory accounting follows the working set, not n².
	dense := NewTable(inst.G)
	if lb, db := tab.MemoryBytes(), dense.MemoryBytes(); lb >= db {
		t.Fatalf("lazy table %d bytes not below dense %d", lb, db)
	}
}

// TestLazyRecencyKeepsHotRow pins the LRU discipline: a row touched
// after every miss epoch must survive a sweep of cold misses.
func TestLazyRecencyKeepsHotRow(t *testing.T) {
	n := 64
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	g := b.Build()
	tab := newLazy(g, 4)
	const hot = 0
	tab.HopDist(1, hot)
	for d := 1; d < n; d++ {
		tab.HopDist(0, d)   // cold miss
		tab.HopDist(1, hot) // re-touch the hot row at the new epoch
	}
	if tab.lazy.rows[hot].Load() == nil {
		t.Fatal("hot row was evicted despite per-epoch touches")
	}
}

// wideTableBytes is the footprint of n rows of 32-bit cells plus the
// 2-bit view, n²·4 + n·⌈n/4⌉. It is the fixed reference the packed
// store's memory bounds are stated against: a 32-bit cell per pair is
// what the all-pairs table costs without width packing.
func wideTableBytes(n int) int64 {
	return int64(n)*int64(n)*4 + int64(n)*int64((n+3)/4)
}

// nibbleDenseBytes is the footprint of a dense table whose rows all
// fit 4-bit cells, as on every low-diameter instance: the cells plus
// the 2-bit view, n·⌈n/2⌉ + n·⌈n/4⌉.
func nibbleDenseBytes(n int) int64 {
	return int64(n)*int64((n+1)/2) + int64(n)*int64((n+3)/4)
}

// TestPackedMemoryFootprint bounds both stores on LPS(11,7) (diameter
// 3: nibble rows throughout): the packed store, which is the Cayley
// table there, under a sixth of the 32-bit row cost, and the dense
// store at no more than its nibble cells plus the view.
func TestPackedMemoryFootprint(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	n := inst.G.N()
	dense := NewTable(inst.G)
	packed := NewTableOpts(inst.G, TableOptions{Store: StorePacked})
	db, pb := dense.MemoryBytes(), packed.MemoryBytes()
	if wide := wideTableBytes(n); pb*6 > wide {
		t.Fatalf("packed table %d bytes, not under 1/6 of the 32-bit row cost %d", pb, wide)
	}
	if bound := nibbleDenseBytes(n); db > bound {
		t.Fatalf("dense table %d bytes, above nibble cells plus view %d", db, bound)
	}
	if packed.Store() != StorePacked || dense.Store() != StoreDense {
		t.Fatal("Store() misreports the backend")
	}
}

// TestMemoryBytesPerBackend pins the exact MemoryBytes accounting on
// LPS(11,7) (n=168, k=12, diameter 3): dense counts each nibble row's
// cells plus its 2-bit next-hop view (n·⌈n/2⌉ + n·⌈n/4⌉ bytes), packed
// each nibble row's cells plus 8 bytes per row, and lazy its
// per-destination bookkeeping (16+8 bytes) plus the resident rows.
// Packed rows are pinned on a copy of the edges without the Cayley
// view; on the LPS graph itself the packed store is the Cayley table,
// pinned apart.
func TestMemoryBytesPerBackend(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	n := g.N()
	if got := NewTable(g).MemoryBytes(); got != 21_168 {
		t.Errorf("dense MemoryBytes = %d, want 21168 (168·84 + 168·42)", got)
	}
	plain := graph.FromEdges(n, g.Edges())
	if got := NewTableOpts(plain, TableOptions{Store: StorePacked}).MemoryBytes(); got != 15_456 {
		t.Errorf("packed MemoryBytes = %d, want 15456 (168·(84+8))", got)
	}
	// The identity's distances (n bytes), the slot generators (n·k
	// bytes), the inverse map (k), the left-multiplication table
	// (4·k·n) and the PSL(2,F_7) group Quot reads: 168 elements of 8
	// bytes, a 7³+7² int32 index and 7 uint32 inverses.
	if got := NewTableOpts(g, TableOptions{Store: StorePacked}).MemoryBytes(); got != 13_200 {
		t.Errorf("Cayley packed MemoryBytes = %d, want 13200 (168 + 2016 + 12 + 8064 + 1344+1568+28)", got)
	}
	lazy := newLazy(g, 16)
	if got := lazy.MemoryBytes(); got != 4_032 {
		t.Errorf("untouched lazy MemoryBytes = %d, want 4032 (168·24)", got)
	}
	for d := 0; d < 40; d++ {
		lazy.HopDist(0, d*3%n)
	}
	if got := lazy.MemoryBytes(); got != 5_376 {
		t.Errorf("lazy MemoryBytes after 40 touches = %d, want 5376 (168·24 + 16·84)", got)
	}
}

func TestTableConcurrentReadersNonDense(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	n := inst.G.N()
	for _, table := range []*Table{
		NewTableOpts(inst.G, TableOptions{Store: StorePacked}),
		newLazy(inst.G, 12), // far below n: concurrent miss + evict churn
	} {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 500; i++ {
					src, dst := rng.Intn(n), rng.Intn(n)
					if table.HopDist(src, dst) < 0 {
						t.Errorf("unreachable pair %d->%d", src, dst)
						return
					}
					if src != dst && table.NextHopRandom(src, dst, rng) < 0 {
						t.Errorf("no next hop %d->%d", src, dst)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestStoreBySize pins the store a zero TableOptions picks: dense rows
// up to denseMaxRouters routers, byte for byte the explicit dense
// table, and packed above — on an intact LPS graph the Cayley table.
// Repair and Restore keep the resolved store.
func TestStoreBySize(t *testing.T) {
	g := circulant(denseMaxRouters, 1, 64)
	store, bytes := func() (Store, int64) { // one 21 MB table (byte rows) alive at a time
		tab := NewTable(g)
		return tab.Store(), tab.MemoryBytes()
	}()
	if store != StoreDense {
		t.Fatalf("n=%d: store %s, want dense", g.N(), store)
	}
	if dense := NewTableOpts(g, TableOptions{Store: StoreDense}).MemoryBytes(); bytes != dense {
		t.Fatalf("n=%d: %d bytes, the explicit dense table %d", g.N(), bytes, dense)
	}

	for _, g := range []*graph.Graph{
		circulant(denseMaxRouters+1, 1, 64),
		topo.MustLPS(5, 17).G, // PGL(2,F_17): 4,896 routers
	} {
		tab := NewTable(g)
		if tab.Store() != StorePacked {
			t.Fatalf("n=%d: store %s, want packed", g.N(), tab.Store())
		}
		if cay := g.Cayley() != nil; (tab.cay != nil) != cay {
			t.Fatalf("n=%d: Cayley table %v, graph has a view %v", g.N(), tab.cay != nil, cay)
		}
		cut := [][2]int32{{0, g.Neighbors(0)[0]}}
		rep := tab.Repair(cut)
		if rep.Store() != StorePacked || rep.Restore(cut).Store() != StorePacked {
			t.Fatalf("n=%d: Repair gave %s, Restore %s, want packed",
				g.N(), rep.Store(), rep.Restore(cut).Store())
		}
	}
	small := NewTable(ring(64)).Repair([][2]int32{{0, 1}})
	if small.Store() != StoreDense || small.Restore([][2]int32{{0, 1}}).Store() != StoreDense {
		t.Fatal("Repair or Restore of a small table left the dense store")
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	for _, p := range []Policy{Minimal, Valiant, UGALL, UGALG} {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Policy
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != p {
			t.Errorf("round trip %v -> %s -> %v", p, data, back)
		}
	}
	var p Policy
	if err := p.UnmarshalText([]byte("fastest")); err == nil {
		t.Error("UnmarshalText accepted an unknown policy")
	}
	// Struct-embedded round trip, as -json experiment rows carry it.
	type row struct{ Policy Policy }
	data, _ := json.Marshal(row{Policy: UGALG})
	var back row
	if err := json.Unmarshal(data, &back); err != nil || back.Policy != UGALG {
		t.Errorf("struct round trip via %s failed: %v", data, err)
	}
}

// benchTables returns the lookup benchmarks' tables on the class-1
// LPS instance: dense rows; packed rows, built on the instance's
// RemoveEdges(nil) copy (the same edges without the group view), since
// the packed store of the intact Cayley graph is the Cayley table,
// which is its own case; and, last, a lazy table whose cap is at least
// n, so it measures the steady-state (hit-path) cost: a sweep cycling
// more destinations than the cap pays a BFS per miss instead, which is
// the documented trade.
func benchTables() []benchTable {
	g := topo.MustLPS(23, 11).G
	return []benchTable{
		{"dense", func() *Table { return NewTableOpts(g, TableOptions{Store: StoreDense}) }},
		{"packed", func() *Table { return NewTableOpts(g.RemoveEdges(nil), TableOptions{Store: StorePacked}) }},
		{"cayley", func() *Table { return NewTableOpts(g, TableOptions{Store: StorePacked}) }},
		{"lazy", func() *Table { return newLazy(g, g.N()) }},
	}
}

// benchTable is one lookup benchmark case: a name and its table's
// builder, run outside the timed loop.
type benchTable struct {
	name  string
	build func() *Table
}

// BenchmarkHopDist measures the per-lookup cost of HopDist, one cell
// read, for each backend on the class-1 LPS instance (benchTables).
// The simulator's per-hop next-hop choice is measured by
// BenchmarkNextHopRandom here and, in situ, by BenchmarkRunLoadStore
// in internal/simnet.
func BenchmarkHopDist(b *testing.B) {
	for _, c := range benchTables() {
		b.Run(c.name, func(b *testing.B) {
			tab := c.build()
			n := tab.G.N()
			var sink int32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += tab.HopDist(i%n, (i*31)%n)
			}
			_ = sink
		})
	}
}

func BenchmarkNextHopRandom(b *testing.B) {
	for _, c := range benchTables()[:3] { // all but lazy
		b.Run(c.name, func(b *testing.B) {
			tab := c.build()
			n := tab.G.N()
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.NextHopRandom(i%n, (i*31)%n, rng)
			}
		})
	}
}

// BenchmarkTableMemory is the memory-regression gate: it reports the
// distance-store bytes of dense and packed rows on SF(17), a family
// with no Cayley view and diameter 2, and fails outright if packed
// rows lose their ≥6× advantage over the 32-bit row cost of the same
// graph (nibble packing is nominally 8×; the slack absorbs row
// headers), or if dense rows cost more than their nibble cells plus
// the 2-bit view. The cayley sub-benchmark reports the packed store of
// the class-1 LPS instance, which is the Cayley table (one identity
// BFS plus the group view) and holds no rows. CI runs it with
// -benchtime=1x.
func BenchmarkTableMemory(b *testing.B) {
	sf := topo.MustSlimFly(17).G
	lps := topo.MustLPS(23, 11).G
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		store Store
	}{
		{"dense", sf, StoreDense},
		{"packed", sf, StorePacked},
		{"cayley", lps, StorePacked},
	} {
		b.Run(c.name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				bytes = NewTableOpts(c.g, TableOptions{Store: c.store}).MemoryBytes()
			}
			b.ReportMetric(float64(bytes), "table-bytes")
			n := c.g.N()
			switch c.name {
			case "dense":
				if bound := nibbleDenseBytes(n); bytes > bound {
					b.Fatalf("memory regression: dense store %d bytes vs nibble cells plus view %d", bytes, bound)
				}
			case "packed":
				if wide := wideTableBytes(n); bytes*6 > wide {
					b.Fatalf("memory regression: packed store %d bytes vs 32-bit rows %d (< 6x cut)", bytes, wide)
				}
			}
		})
	}
}

// sharesRow reports whether tables a and b hold the same stored cells
// toward dest, i.e. whether one shares the other's row.
func sharesRow(a, b *Table, dest int) bool {
	ra, rb := a.row(dest), b.row(dest)
	if ra.bits != rb.bits {
		return false
	}
	return &ra.cells[0] == &rb.cells[0]
}

package routing

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/topo"
)

// TestTableConcurrentReaders exercises the documented contract that a
// Table is safe for concurrent readers: many goroutines hammer every
// read path of a shared table with private RNGs. Run under -race (the
// CI configuration) this asserts the immutability claim.
func TestTableConcurrentReaders(t *testing.T) {
	inst, err := topo.LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	table := NewTable(inst.G)
	n := inst.G.N()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				d := table.HopDist(src, dst)
				if d < 0 {
					t.Errorf("unreachable pair %d->%d in connected graph", src, dst)
					return
				}
				if src != dst {
					if next := table.NextHopRandom(src, dst, rng); next < 0 {
						t.Errorf("no next hop %d->%d", src, dst)
						return
					}
					if path := samplePath(table, src, dst, rng); len(path) != int(d)+1 {
						t.Errorf("path length %d want %d", len(path)-1, d)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTableSwapUnderConcurrentReaders pins the live-swap contract the
// unified simulator engine depends on at its schedule barriers
// (DESIGN.md §10): Repair/Restore never mutate the receiver, so a
// writer may publish a repaired table through a shared pointer while
// readers are mid-lookup on the previous one. Each reader checks a
// snapshot-consistency invariant that holds for ANY valid table —
// every next hop is exactly one hop closer on the same snapshot — so
// torn or partially updated state would fail it regardless of which
// side of a swap the reader observed. Run under -race (the CI
// configuration) this also asserts the no-mutation claim directly.
func TestTableSwapUnderConcurrentReaders(t *testing.T) {
	inst, err := topo.LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := NewTable(inst.G)
	n := inst.G.N()
	var cut [][2]int32
	for v := int32(0); v < 8; v++ {
		cut = append(cut, [2]int32{v, inst.G.Neighbors(int(v))[0]})
	}

	var live atomic.Pointer[Table]
	live.Store(base)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]int32, 0, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := live.Load() // one snapshot per iteration
				src, dst := rng.Intn(n), rng.Intn(n)
				d := snap.HopDist(src, dst)
				if src == dst || d < 0 {
					continue
				}
				buf = snap.nextHopSlots(src, dst, buf[:0])
				for _, s := range buf {
					h := snap.G.Neighbors(src)[s]
					if hd := snap.HopDist(int(h), dst); hd != d-1 {
						t.Errorf("snapshot inconsistent: hop %d->%d via %d at distance %d, want %d",
							src, dst, h, hd, d-1)
						return
					}
				}
			}
		}(w)
	}

	// Writer: chain Repair/Restore round trips, publishing each result
	// while the readers run.
	cur := base
	for i := 0; i < 6; i++ {
		cur = cur.Repair(cut)
		live.Store(cur)
		cur = cur.Restore(cut)
		live.Store(cur)
	}
	close(stop)
	wg.Wait()

	// The round-tripped table matches a fresh build — and base itself
	// was never touched.
	for _, tab := range []*Table{cur, base} {
		for src := 0; src < n; src += 17 {
			for dst := 0; dst < n; dst += 13 {
				if got, want := tab.HopDist(src, dst), base.HopDist(src, dst); got != want {
					t.Fatalf("dist %d->%d = %d, want %d after round trips", src, dst, got, want)
				}
			}
		}
	}
}

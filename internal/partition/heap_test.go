package partition

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refHeap drives gainEntry slices through container/heap: the
// reference whose sift order gainHeap must match, since equal-gain
// entries pop in heap-layout order and that order decides cuts.
type refHeap []gainEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(gainEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestGainHeapMatchesContainerHeap checks, after every init, push and
// pop of random tie-heavy sequences, that gainHeap's layout and popped
// entries equal container/heap's.
func TestGainHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 300 {
		var h gainHeap
		var r refHeap
		for i := range rng.Intn(40) {
			e := gainEntry{gain: int64(rng.Intn(5)), v: int32(i)}
			h, r = append(h, e), append(r, e)
		}
		h.init()
		heap.Init(&r)
		for op := range 200 {
			if len(h) == 0 || rng.Intn(3) > 0 {
				e := gainEntry{gain: int64(rng.Intn(5)), v: int32(op)}
				h.push(e)
				heap.Push(&r, e)
			} else if got, want := h.pop(), heap.Pop(&r).(gainEntry); got != want {
				t.Fatalf("trial %d op %d: pop %v, container/heap %v", trial, op, got, want)
			}
			if !slices.Equal(h, gainHeap(r)) {
				t.Fatalf("trial %d op %d: layout %v, container/heap %v", trial, op, h, r)
			}
		}
	}
}

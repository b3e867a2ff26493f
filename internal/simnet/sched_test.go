package simnet

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// schedRef runs the calendar-queue scheduler beside the reference
// binary heap: every push goes to both, and every pop must agree.
// pending tracks the queued keys, which the ordering contract requires
// to be unique.
type schedRef struct {
	t       testing.TB
	s       scheduler
	ref     eventQueue
	pending map[int64]bool
	now     int64 // time of the last pop (the scheduler's cursor)
}

func newSchedRef(t testing.TB) *schedRef {
	r := &schedRef{t: t, pending: map[int64]bool{}}
	r.s.reset()
	return r
}

// push queues e at offset dt from the last pop unless its key is
// already pending; ids are pinned near the top of the int32 range and
// pkt is nonzero for every kind, so a lossy slot encoding shows.
func (r *schedRef) push(dt, key int64, kind int8) bool {
	if r.pending[key] {
		return false
	}
	r.pending[key] = true
	e := event{
		time: r.now + dt,
		seq:  key,
		at:   math.MaxInt32 - int32(key%97),
		pkt:  1 + int32(uint64(key)%(math.MaxInt32-1)),
		kind: kind,
	}
	r.s.push(e)
	r.ref.push(e)
	return true
}

func (r *schedRef) pop() {
	r.t.Helper()
	want := r.ref.pop()
	got, ok := r.s.popBefore(math.MaxInt64)
	if !ok {
		r.t.Fatalf("scheduler empty while the heap holds %+v", want)
	}
	if got != want {
		r.t.Fatalf("scheduler popped %+v, heap popped %+v", got, want)
	}
	delete(r.pending, got.seq)
	r.now = got.time
}

func (r *schedRef) drain() {
	r.t.Helper()
	for len(r.ref) > 0 {
		r.pop()
	}
	if r.s.count != 0 {
		r.t.Fatalf("scheduler count %d after drain", r.s.count)
	}
}

// nextSort reports the pending length and radix pass count of the sort
// the next pop will run on the head bucket, if it is marked unsorted.
// (A pop that first migrates overflow events into that bucket sorts a
// few more; the tally below only needs each path to be reached.)
func (r *schedRef) nextSort() (n int, passes int, ok bool) {
	s := &r.s
	if s.wcount == 0 {
		return 0, 0, false
	}
	b := s.nextOccupied()
	if s.unsorted[b>>6]&(1<<uint(b&63)) == 0 {
		return 0, 0, false
	}
	return len(s.buckets[b]) - int(s.bhead[b]), (bits.Len64(uint64(s.top[b])) + radixBits - 1) / radixBits, true
}

// TestSchedulerMatchesHeap drives the calendar-queue scheduler and the
// reference binary heap with an identical randomized push/pop script —
// keys pushed out of order, same-cycle pushes, far-future events beyond
// the wheel horizon, all three event kinds — and requires identical pop
// sequences, so the 16-byte slot encoding must round-trip every field.
// Each cycle draws its keys from one width class (≤ 11, ~20 or > 33
// bits), so the radix sort runs one, two and three-plus passes; hot
// cycles grow buckets past the insertion cutoff while quiet ones stay
// below it, and the test requires every sort path to have run. A
// scripted tail re-sorts partly popped buckets.
func TestSchedulerMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := newSchedRef(t)
	key := func(time int64) int64 {
		switch time % 3 {
		case 0:
			return rng.Int63n(1 << radixBits)
		case 1:
			return 1<<19 | rng.Int63n(1<<19)
		default:
			return 1<<40 | rng.Int63n(1<<40)
		}
	}
	push := func() {
		dt := int64(rng.Intn(40)) // mostly inside the wheel window
		switch rng.Intn(10) {
		case 0:
			dt = int64(rng.Intn(8 * wheelSize)) // far future: overflow path
		case 1:
			dt = 0 // same-cycle push
		case 2, 3, 4:
			dt = 8 - r.now%8 // a hot cycle: buckets past the insertion cutoff
		}
		for !r.push(dt, key(r.now+dt), int8(rng.Intn(3))) {
		}
	}
	var insertion int
	var radix [4]int // by pass count, 3+ in the last
	for i := 0; i < 40_000; i++ {
		if len(r.ref) == 0 || (r.s.count < 600 && rng.Intn(3) > 0) {
			push()
			continue
		}
		if n, passes, ok := r.nextSort(); ok {
			if n <= insertionMax {
				insertion++
			} else {
				radix[min(passes, 3)]++
			}
		}
		r.pop()
	}
	r.drain()
	if insertion == 0 || radix[1] == 0 || radix[2] == 0 || radix[3] == 0 {
		t.Errorf("sort paths not all reached: %d insertion sorts, radix sorts by passes 1/2/3+ = %d/%d/%d",
			insertion, radix[1], radix[2], radix[3])
	}

	// Re-sort a partly popped bucket: same-cycle keys below keys it
	// already popped, and wider ones above.
	r.push(5, 1, evArrive) // an anchor, popped to make its cycle current
	r.pop()
	for i := 0; i < 2*insertionMax; i++ {
		r.push(0, 1<<36|rng.Int63n(1<<36), int8(i%3))
	}
	for i := 0; i < insertionMax/2; i++ {
		r.pop()
	}
	for i := 0; i < 2*insertionMax; i++ {
		r.push(0, rng.Int63n(1<<20)+int64(i%2)<<37, int8(i%3))
	}
	r.drain()

	// Pop a bucket dry through its wide largest key, then refill the
	// same cycle with narrow keys in descending order: the re-sort
	// takes its passes from the new keys alone.
	r.push(1, 1<<50, evDeliver)
	r.pop()
	for k := int64(3 * insertionMax); k > 0; k-- {
		r.push(0, k, evInject)
	}
	r.pop()
	r.push(0, 0, evArrive) // below every key popped so far
	r.drain()
}

// FuzzSchedulerOrder decodes a push/pop script from the input and
// requires the scheduler to pop exactly what the reference heap pops.
// A pop is one byte with low bits 00. A push is an op byte, a 16-bit
// time offset and a 32-bit key: the op's bit 6 keeps the offset as
// decoded (most exceed the wheel window and go to the overflow heap)
// rather than taking it mod 64, bits 2–3 shift the key left by 0, 10,
// 20 or 30 bits, and bits 4–5 pick the kind. With bit 7 set, one more
// byte n makes the push a burst of n+1 events into the same cycle
// whose keys step by an odd constant mod 2^32 — distinct and out of
// order, so a short input fills a bucket past the insertion cutoff. A
// key already pending is skipped.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{1, 3, 0, 9, 0, 0, 0, 1, 3, 0, 2, 0, 0, 0, 0})
	f.Add([]byte{0x45, 0xff, 0x20, 1, 2, 3, 4, 0x19, 0, 0, 7, 7, 7, 7, 0x2d, 5, 0, 9, 9, 9, 0, 0, 0})
	f.Add([]byte{0x81, 2, 0, 1, 0, 0, 0, 200, 0x8d, 2, 0, 5, 0, 0, 0, 90, 0, 0x99, 1, 0, 3, 0, 0, 0, 40, 0, 0, 0xa5, 9, 0, 7, 0, 0, 0, 70})
	f.Fuzz(func(t *testing.T, script []byte) {
		r := newSchedRef(t)
		for len(script) > 0 {
			op := script[0]
			if op&3 == 0 {
				script = script[1:]
				if len(r.ref) > 0 {
					r.pop()
				}
				continue
			}
			n := 1
			if op&0x80 != 0 {
				if len(script) < 8 {
					break
				}
				n += int(script[7])
			} else if len(script) < 7 {
				break
			}
			dt := int64(binary.LittleEndian.Uint16(script[1:]))
			if op&0x40 == 0 {
				dt %= 64
			}
			key := binary.LittleEndian.Uint32(script[3:])
			for i := 0; i < n; i++ {
				k := int64(key+uint32(i)*0x9e3779b1) << (10 * (op >> 2 & 3))
				r.push(dt, k, int8((int(op>>4&3)+i)%3))
			}
			script = script[min(len(script), 7+int(op>>7)):]
		}
		r.drain()
	})
}

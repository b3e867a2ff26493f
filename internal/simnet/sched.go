package simnet

import (
	"math/bits"
	"unsafe"
)

// scheduler is the event queue of the run loop: a calendar queue
// (time wheel) of one-cycle buckets over a sliding window of wheelSize
// cycles, backed by a binary min-heap for events beyond the horizon.
//
// The model schedules almost every event a few tens of cycles ahead
// (serialization + link latency), so the wheel turns push and pop into
// O(1) bucket appends and bitmap scans instead of the O(log n) sift of
// a global heap over every in-flight event. Far-future events — deep
// backpressure stalls, light-load injection gaps longer than the
// window — overflow to the heap and migrate into the wheel as the
// cursor advances past their horizon.
//
// Ordering contract (identical to a global heap): events pop in
// nondecreasing (time, seq) order, where seq is the event's canonical
// key (see push in simnet.go). A non-empty bucket holds events of
// exactly one absolute time (two times congruent mod wheelSize are
// ≥ wheelSize apart, so they can never share the window), so ordering a
// bucket is ordering its keys. Keys arrive out of order — a bucket
// collects the events of one cycle pushed by many earlier events, and
// on a shard also by cross-shard handoffs — so a push below the
// bucket's largest key marks the bucket unsorted, and the bucket's
// pending suffix is sorted once, when it is next popped from.
type scheduler struct {
	// cur is the time cursor: every popped event had time ≤ cur, every
	// queued event has time ≥ cur, and the wheel window is
	// [cur, cur+wheelSize).
	cur    int64
	count  int // total queued events (wheel + overflow)
	wcount int // events currently in the wheel
	peak   int // high-water mark of count within the current run

	buckets  [][]event // wheelSize buckets of one cycle each
	bhead    []int32   // per-bucket FIFO head (consumed prefix)
	top      []int64   // per-bucket largest key (compact: pushes read no bucket)
	occ      []uint64  // occupancy bitmap over the buckets
	unsorted []uint64  // bitmap: the bucket's pending suffix is out of key order
	overflow eventQueue
}

const (
	wheelBits  = 11
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// reset prepares the scheduler for a new run, retaining bucket and
// heap capacity from earlier runs of the same Network.
func (s *scheduler) reset() {
	if s.buckets == nil {
		s.buckets = make([][]event, wheelSize)
		s.bhead = make([]int32, wheelSize)
		s.top = make([]int64, wheelSize)
		s.occ = make([]uint64, wheelWords)
		s.unsorted = make([]uint64, wheelWords)
	}
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
		s.bhead[i] = 0
	}
	clear(s.occ)
	clear(s.unsorted)
	s.overflow = s.overflow[:0]
	s.cur, s.count, s.wcount, s.peak = 0, 0, 0, 0
}

// push queues an event. The run loop never schedules into the past;
// the clamp keeps a (hypothetical) stale timestamp from aliasing onto
// a future bucket a full window away.
func (s *scheduler) push(e event) {
	if e.time < s.cur {
		e.time = s.cur
	}
	s.count++
	if s.count > s.peak {
		s.peak = s.count
	}
	if e.time < s.cur+wheelSize {
		s.bucketPush(e)
		return
	}
	s.overflow.push(e)
}

func (s *scheduler) bucketPush(e event) {
	b := int(e.time & wheelMask)
	switch {
	case len(s.buckets[b]) == 0:
		s.occ[b>>6] |= 1 << uint(b&63)
		s.top[b] = e.seq
	case e.seq < s.top[b]:
		s.unsorted[b>>6] |= 1 << uint(b&63)
	default:
		s.top[b] = e.seq
	}
	s.buckets[b] = append(s.buckets[b], e)
	s.wcount++
}

// migrate drains overflow events that the advancing window now covers
// into their buckets. It must run every time cur advances (each event
// migrates at most once, so the cost is amortized O(1) per event).
func (s *scheduler) migrate() {
	for len(s.overflow) > 0 && s.overflow[0].time < s.cur+wheelSize {
		s.bucketPush(s.overflow.pop())
	}
}

// nextOccupied returns the bucket of the earliest queued wheel event,
// scanning the occupancy bitmap from the cursor position (wrapping:
// bucket indices below cur&wheelMask hold later absolute times).
func (s *scheduler) nextOccupied() int {
	start := int(s.cur & wheelMask)
	w := start >> 6
	word := s.occ[w] &^ (1<<uint(start&63) - 1)
	for i := 0; ; i++ {
		if word != 0 {
			return (w<<6 + bits.TrailingZeros64(word)) & wheelMask
		}
		w = (w + 1) % wheelWords
		word = s.occ[w]
		if i > wheelWords {
			panic("simnet: scheduler bitmap lost an occupied bucket")
		}
	}
}

// popBefore removes and returns the earliest event by (time, seq) if
// its time lies before end — the one pop rule of the run loop (end is
// the window end of a shard, or math.MaxInt64). One bitmap scan
// decides and extracts, where a peekTime+pop pair would scan twice per
// event. A failed attempt may still advance the cursor to the earliest
// queued time, which preserves every invariant (cur never exceeds a
// queued event's time).
func (s *scheduler) popBefore(end int64) (event, bool) {
	if s.count == 0 {
		return event{}, false
	}
	if s.wcount == 0 {
		if s.overflow[0].time >= end {
			return event{}, false
		}
		s.cur = s.overflow[0].time
		s.migrate()
	}
	b := s.nextOccupied()
	t := s.cur + (int64(b)-s.cur)&wheelMask
	if t >= end {
		return event{}, false
	}
	if t > s.cur {
		s.cur = t
		s.migrate()
	}
	return s.takeFrom(b), true
}

// takeFrom extracts the next event of bucket b, which the caller has
// established is the head bucket of the wheel, sorting the bucket's
// pending suffix first if a push left it out of key order.
func (s *scheduler) takeFrom(b int) event {
	bk := s.buckets[b]
	if w, m := b>>6, uint64(1)<<uint(b&63); s.unsorted[w]&m != 0 {
		sortBySeq(bk[s.bhead[b]:])
		s.unsorted[w] &^= m
	}
	e := bk[s.bhead[b]]
	s.bhead[b]++
	if int(s.bhead[b]) == len(bk) {
		s.buckets[b] = bk[:0]
		s.bhead[b] = 0
		s.occ[b>>6] &^= 1 << uint(b&63)
	}
	s.count--
	s.wcount--
	return e
}

// peekTime returns the time of the earliest queued event without
// popping it, or math.MaxInt64 when the queue is empty. The window
// loop uses it to pick the next global window start.
func (s *scheduler) peekTime() int64 {
	if s.count == 0 {
		return int64(^uint64(0) >> 1) // math.MaxInt64
	}
	if s.wcount == 0 {
		return s.overflow[0].time
	}
	b := s.nextOccupied()
	return s.cur + (int64(b)-s.cur)&wheelMask
}

// sortBySeq sorts one bucket's events by key: insertion sort for short
// runs, otherwise a median-of-three quicksort that recurses into the
// smaller half. Written out for the event type because this is the
// run loop's hottest sort, and a comparator call per comparison would
// cost more than the comparison.
func sortBySeq(a []event) {
	for len(a) > 12 {
		m := len(a) / 2
		if a[m].seq < a[0].seq {
			a[m], a[0] = a[0], a[m]
		}
		if a[len(a)-1].seq < a[0].seq {
			a[len(a)-1], a[0] = a[0], a[len(a)-1]
		}
		if a[len(a)-1].seq < a[m].seq {
			a[len(a)-1], a[m] = a[m], a[len(a)-1]
		}
		pivot := a[m].seq
		i, j := 0, len(a)-1
		for i <= j {
			for a[i].seq < pivot {
				i++
			}
			for a[j].seq > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j+1 < len(a)-i {
			sortBySeq(a[:j+1])
			a = a[i:]
		} else {
			sortBySeq(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].seq < a[j-1].seq; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// memoryBytes reports the scheduler's peak footprint for the current
// run: the event high-water mark plus the fixed wheel structure. The
// accounting is length-based, not capacity-based, so the value is a
// pure function of the run — identical whether the Network is fresh,
// cloned, or reused (retained capacity slack from earlier runs does
// not leak in).
func (s *scheduler) memoryBytes() int64 {
	const eventBytes = int64(unsafe.Sizeof(event{}))
	b := int64(s.peak) * eventBytes
	// Bucket slice headers, FIFO heads, top keys and the two bitmaps.
	b += int64(len(s.buckets))*24 + int64(len(s.bhead))*4 + int64(len(s.top))*8 + int64(len(s.occ)+len(s.unsorted))*8
	return b
}

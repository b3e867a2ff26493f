package simnet

import "math/bits"

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
// key (see push in simnet.go), unique among pending events and never
// negative. A non-empty bucket holds events of exactly one absolute
// time (two times congruent mod wheelSize are ≥ wheelSize apart, so
// they can never share the window), so ordering a bucket is ordering
// its keys — and a bucket entry need not store its time: the wheel
// holds 16-byte slots, half an event, and popBefore rebuilds the event
// from the bucket's time. Keys arrive out of order — a bucket collects
// the events of one cycle pushed by many earlier events, and on a
// shard also by cross-shard handoffs — so a push below the bucket's
// largest key marks the bucket unsorted, and the bucket's pending
// suffix is sorted once, when it is next popped from: by insertion
// below a small cutoff, otherwise by an LSD radix sort over only as
// many key bits as the bucket's largest key has. Since keys are unique,
// every correct sort yields the same pop order.
type scheduler struct {
	// cur is the time cursor: every popped event had time ≤ cur, every
	// queued event has time ≥ cur, and the wheel window is
	// [cur, cur+wheelSize).
	cur      int64
	count    int // total queued events (wheel + overflow)
	wcount   int // events currently in the wheel
	wpeak    int // high-water mark of wcount within the current run
	opeak    int // high-water mark of len(overflow) within the current run
	sortPeak int // largest suffix radix-sorted within the current run

	buckets  [][]slot // wheelSize buckets of one cycle each
	bhead    []int32  // per-bucket FIFO head (consumed prefix)
	top      []int64  // per-bucket largest key (compact: pushes read no bucket)
	occ      []uint64 // occupancy bitmap over the buckets
	unsorted []uint64 // bitmap: the bucket's pending suffix is out of key order
	scratch  []slot   // radix sort ping-pong buffer, grown to the largest sort
	overflow eventQueue
}

const (
	wheelBits  = 11
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64

	// insertionMax is the longest pending suffix sortBucket sorts by
	// insertion; a radix pass costs a 2^digit count array on top of
	// two sweeps of the suffix, which short suffixes do not repay.
	insertionMax = 64
	// radixBits is the widest radix digit. The count array of
	// 2^radixBits int32 (8 KiB) lives on the stack.
	radixBits = 11
)

// slot is a wheel entry: an event without its time, which the bucket
// implies. The kind rides in the sign bits of the two ids, which are
// never negative: an injection stores ^pkt, a delivery ^at, an
// arrival both as they are.
type slot struct {
	seq int64
	at  int32
	pkt int32
}

func toSlot(e event) slot {
	sl := slot{seq: e.seq, at: e.at, pkt: e.pkt}
	switch e.kind {
	case evDeliver:
		sl.at = ^e.at
	case evInject:
		sl.pkt = ^e.pkt
	}
	return sl
}

// event rebuilds the queued event of time t.
func (sl slot) event(t int64) event {
	e := event{time: t, seq: sl.seq, at: sl.at, pkt: sl.pkt, kind: evArrive}
	switch {
	case sl.pkt < 0:
		e.pkt, e.kind = ^sl.pkt, evInject
	case sl.at < 0:
		e.at, e.kind = ^sl.at, evDeliver
	}
	return e
}

// reset prepares the scheduler for a new run, retaining bucket, heap
// and scratch capacity from earlier runs of the same Network.
func (s *scheduler) reset() {
	if s.buckets == nil {
		s.buckets = make([][]slot, wheelSize)
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
	s.cur, s.count, s.wcount = 0, 0, 0
	s.wpeak, s.opeak, s.sortPeak = 0, 0, 0
}

// push queues an event. The run loop never schedules into the past;
// the clamp keeps a (hypothetical) stale timestamp from aliasing onto
// a future bucket a full window away.
func (s *scheduler) push(e event) {
	if e.time < s.cur {
		e.time = s.cur
	}
	s.count++
	if e.time < s.cur+wheelSize {
		s.bucketPush(e)
		return
	}
	s.overflow.push(e)
	s.opeak = max(s.opeak, len(s.overflow))
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
	s.buckets[b] = append(s.buckets[b], toSlot(e))
	s.wcount++
	if s.wcount > s.wpeak {
		s.wpeak = s.wcount
	}
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
	return s.takeFrom(b).event(t), true
}

// takeFrom extracts the next slot of bucket b, which the caller has
// established is the head bucket of the wheel, sorting the bucket's
// pending suffix first if a push left it out of key order.
func (s *scheduler) takeFrom(b int) slot {
	if w, m := b>>6, uint64(1)<<uint(b&63); s.unsorted[w]&m != 0 {
		s.sortBucket(b)
		s.unsorted[w] &^= m
	}
	bk := s.buckets[b]
	sl := bk[s.bhead[b]]
	s.bhead[b]++
	if int(s.bhead[b]) == len(bk) {
		s.buckets[b] = bk[:0]
		s.bhead[b] = 0
		s.occ[b>>6] &^= 1 << uint(b&63)
	}
	s.count--
	s.wcount--
	return sl
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

// sortBucket sorts bucket b's pending suffix by key. A comparison sort
// mispredicts a branch on about every other comparison of these keys
// (a bucket interleaves many ascending runs), so suffixes past
// insertionMax take an LSD radix sort, whose passes cover just the bit
// length of the bucket's largest key: one pass up to radixBits bits,
// two up to twice that, and so on, with the bits split evenly.
func (s *scheduler) sortBucket(b int) {
	a := s.buckets[b][s.bhead[b]:]
	if len(a) <= insertionMax {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && a[j].seq < a[j-1].seq; j-- {
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
		return
	}
	s.sortPeak = max(s.sortPeak, len(a))
	if cap(s.scratch) < len(a) {
		s.scratch = make([]slot, len(a))
	}
	// Unique keys make top ≥ len(a)-1 > 0, so there is at least one pass.
	keyBits := uint(bits.Len64(uint64(s.top[b])))
	passes := (keyBits + radixBits - 1) / radixBits
	width := (keyBits + passes - 1) / passes
	mask := int64(1)<<width - 1
	src, dst := a, s.scratch[:len(a)]
	var count [1 << radixBits]int32
	for shift := uint(0); shift < keyBits; shift += width {
		c := count[:1<<width]
		clear(c)
		for i := range src {
			c[src[i].seq>>shift&mask]++
		}
		if int(c[src[0].seq>>shift&mask]) == len(src) {
			continue // every key shares this digit
		}
		var sum int32
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, sl := range src {
			d := sl.seq >> shift & mask
			dst[c[d]] = sl
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// memoryBytes reports the scheduler's peak footprint for the current
// run: wheel slots and overflow events at their own high-water marks
// and sizes, the radix scratch at the run's largest radix-sorted
// suffix, plus the fixed wheel structure. The accounting is
// length-based, not capacity-based, so the value is a pure function of
// the run — identical whether the Network is fresh, cloned, or reused
// (retained capacity slack from earlier runs does not leak in).
func (s *scheduler) memoryBytes() int64 {
	b := int64(s.wpeak+s.sortPeak)*slotBytes + int64(s.opeak)*eventBytes
	// Bucket slice headers, FIFO heads, top keys and the two bitmaps.
	b += int64(len(s.buckets))*24 + int64(len(s.bhead))*4 + int64(len(s.top))*8 + int64(len(s.occ)+len(s.unsorted))*8
	return b
}

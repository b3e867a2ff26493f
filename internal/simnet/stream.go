package simnet

import (
	"math"
	"math/rand"
	"slices"
)

// splitmix64 is a tiny deterministic rand.Source64 (Steele et al.'s
// SplitMix64 finalizer). Every endpoint generator carries one, so the
// streaming run loop can hold nep independent Poisson/pattern streams
// in two words of state each instead of nep copies of math/rand's
// ~5 KB lagged-Fibonacci state — and so one endpoint's draw count can
// never perturb another endpoint's stream.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// mix64 is the SplitMix64 finalizer: a full-avalanche scramble shared
// by the generator and the seed derivation.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// mixSeed derives the lane'th stream state from a run seed: one
// SplitMix64 scramble over the combined words, so sequential seeds and
// lanes land on uncorrelated states.
func mixSeed(seed, lane int64) uint64 {
	return mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(lane) + 1)
}

// epGen is one sender's streaming injection cursor: a private RNG
// (gap and destination draws), the continuous Poisson arrival clock,
// and the count of messages still to generate. Each sender keeps
// exactly one pending injection event in the scheduler, so queued
// injections cost O(senders), not O(endpoints × msgsPerEP); an
// endpoint outside the Workload's senders is never seeded or queued.
type epGen struct {
	src  splitmix64
	rng  *rand.Rand // wraps &src; allocated on the endpoint's first send
	t    float64    // continuous arrival clock (fractional carry)
	left int        // messages still to generate
}

// next advances the continuous Poisson clock by one exponential gap
// and returns the arrival cycle, rounded to nearest. Keeping t in
// float64 carries the fractional remainder across messages, so the
// realized mean inter-arrival gap matches PacketFlits/load instead of
// being biased low by per-message truncation. The explicit float64
// conversion rounds the product before the sum, so no platform fuses
// the two into one multiply-add and every platform draws the same
// arrival cycles.
func (g *epGen) next(meanGap float64) int64 {
	g.t += float64(g.rng.ExpFloat64() * meanGap)
	return int64(g.t + 0.5)
}

// latDigest is the exact latency statistic behind MeanLatency and
// P99Latency: a histogram with one count per latency cycle, plus the
// exact count and sum. It costs O(max latency) memory instead of
// O(deliveries), and shards merge by adding counts, so every quantile
// is the exact quantile of the whole run's deliveries whatever the
// shard count.
type latDigest struct {
	count int64
	sum   int64
	// hist[v] counts deliveries of latency v. Entries past len are
	// zero (reset clears what a run used), so growing by reslicing
	// needs no clearing.
	hist []int64
}

func (d *latDigest) reset() {
	d.count, d.sum = 0, 0
	clear(d.hist)
	d.hist = d.hist[:0]
}

// grow extends the histogram to cover latencies below n.
func (d *latDigest) grow(n int) {
	if n > len(d.hist) {
		d.hist = slices.Grow(d.hist, n-len(d.hist))[:n]
	}
}

func (d *latDigest) add(v int64) {
	d.count++
	d.sum += v
	d.grow(int(v) + 1)
	d.hist[v]++
}

// merge adds o's deliveries to d.
func (d *latDigest) merge(o *latDigest) {
	d.count += o.count
	d.sum += o.sum
	d.grow(len(o.hist))
	for v, c := range o.hist {
		d.hist[v] += c
	}
}

// mean returns the exact mean latency.
func (d *latDigest) mean() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// quantile returns the nearest-rank p-quantile (the ⌈p·n⌉-th smallest
// latency), or 0 when nothing was delivered (a fully dead or
// partitioned network has no tail to report). Nearest-rank never
// reports below the requested quantile.
func (d *latDigest) quantile(p float64) int64 {
	if d.count == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(p*float64(d.count))), 1), d.count)
	var cum int64
	for v, c := range d.hist {
		if cum += c; cum >= rank {
			return int64(v)
		}
	}
	return int64(len(d.hist) - 1)
}

// memoryBytes reports the histogram's footprint (length-based, like
// the rest of the MemoryBytes accounting).
func (d *latDigest) memoryBytes() int64 {
	return int64(len(d.hist)) * 8
}

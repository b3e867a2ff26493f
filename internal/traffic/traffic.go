// Package traffic generates the workloads of §VI: the synthetic
// permutation micro-benchmarks (uniform random, bit shuffle, bit
// reverse, transpose, bit complement) used for the congestion studies
// of Figures 6–8, and the Ember-style communication motifs (Halo3D-26,
// Sweep3D, sub-communicator FFT) of Figures 9–10, together with the
// rank→endpoint mapping rule the paper uses under under-subscription
// (random node allocation, sequential rank placement).
//
// Bit-permutation patterns are defined on rank spaces that are powers
// of two, exactly as in the classical traffic-pattern literature the
// paper draws from.
package traffic

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/simnet"
)

// Pattern identifies a synthetic micro-benchmark pattern.
type Pattern int

const (
	// Random sends each message to an independent uniformly random rank.
	Random Pattern = iota
	// BitShuffle rotates the rank's bit representation left by one.
	BitShuffle
	// BitReverse reverses the rank's bits.
	BitReverse
	// Transpose swaps the high and low halves of the rank's bits.
	Transpose
	// BitComplement inverts every bit (an extra classical pattern,
	// included beyond the paper's four for ablation experiments).
	BitComplement
)

func (p Pattern) String() string {
	switch p {
	case Random:
		return "random"
	case BitShuffle:
		return "bit-shuffle"
	case BitReverse:
		return "bit-reverse"
	case Transpose:
		return "transpose"
	case BitComplement:
		return "bit-complement"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// MarshalText renders the pattern name, so JSON experiment output
// (spectralfly -json) carries "bit-shuffle" rather than an enum value.
func (p Pattern) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a pattern name, accepting exactly the forms
// MarshalText emits, so -json experiment output and sweep
// configurations (the CLI's -patterns flag) round-trip.
func (p *Pattern) UnmarshalText(text []byte) error {
	switch string(text) {
	case "random":
		*p = Random
	case "bit-shuffle":
		*p = BitShuffle
	case "bit-reverse":
		*p = BitReverse
	case "transpose":
		*p = Transpose
	case "bit-complement":
		*p = BitComplement
	default:
		return fmt.Errorf("traffic: unknown pattern %q (want random, bit-shuffle, bit-reverse, transpose or bit-complement)", text)
	}
	return nil
}

// SyntheticPatterns lists the four patterns evaluated in Figure 6.
var SyntheticPatterns = []Pattern{Random, BitShuffle, BitReverse, Transpose}

// Valid reports whether p is one of the named patterns (Random through
// BitComplement). Dest panics on any other value, so every entry that
// accepts a Pattern from a caller checks it first.
func (p Pattern) Valid() bool { return p >= Random && p <= BitComplement }

// Dest returns the destination rank for a message from src under the
// pattern, over a rank space of size ranks (a power of two for the bit
// patterns). Random consults rng; the others are deterministic
// permutations.
func (p Pattern) Dest(src, ranks int, rng *rand.Rand) int {
	switch p {
	case Random:
		return rng.Intn(ranks)
	case BitShuffle:
		b := bits.Len(uint(ranks)) - 1
		return ((src << 1) | (src >> (b - 1))) & (ranks - 1)
	case BitReverse:
		b := bits.Len(uint(ranks)) - 1
		return int(bits.Reverse(uint(src)) >> (bits.UintSize - b))
	case Transpose:
		b := bits.Len(uint(ranks)) - 1
		h := b / 2
		lowMask := (1 << h) - 1
		return ((src & lowMask) << (b - h)) | (src >> h)
	case BitComplement:
		return ^src & (ranks - 1)
	}
	panic(fmt.Sprintf("traffic: unknown pattern %d", int(p)))
}

// PowerOfTwo reports whether n is a power of two.
func PowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Mapping assigns MPI ranks to endpoints: per §VI-B, under
// under-subscription the nodes given to the job are chosen randomly and
// ranks are then placed sequentially in the topology's standard order.
type Mapping struct {
	EPOf []int32 // EPOf[rank] = endpoint id
	// RankOf[ep] = rank placed on endpoint ep, or -1 when the endpoint
	// is not part of the job. Precomputed once per mapping so the
	// per-message source lookup in the simulator's pattern closure is
	// an array read instead of a map probe built per run.
	RankOf []int32
}

// NewMapping selects ranks endpoints out of totalEP: a random
// size-ranks subset (seeded), sorted into standard order, with ranks
// assigned sequentially. When ranks == totalEP the mapping is the
// identity.
func NewMapping(ranks, totalEP int, seed int64) (Mapping, error) {
	if ranks <= 0 || ranks > totalEP {
		return Mapping{}, fmt.Errorf("traffic: ranks %d out of range (1..%d)", ranks, totalEP)
	}
	eps := make([]int32, totalEP)
	for i := range eps {
		eps[i] = int32(i)
	}
	if ranks < totalEP {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(totalEP, func(i, j int) { eps[i], eps[j] = eps[j], eps[i] })
		eps = eps[:ranks]
		sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	}
	eps = eps[:ranks]
	rankOf := make([]int32, totalEP)
	for i := range rankOf {
		rankOf[i] = -1
	}
	for r, ep := range eps {
		rankOf[ep] = int32(r)
	}
	return Mapping{EPOf: eps, RankOf: rankOf}, nil
}

// PatternEndpoints returns the job's simnet.Workload: the mapped
// endpoints send (EPOf is sorted), each translating the pattern from
// rank space to endpoint space through the mapping. Every sweep load
// cell, the façade's Sim runs included, translates through it.
func (m Mapping) PatternEndpoints(p Pattern, ranks int) simnet.Workload {
	return simnet.Workload{Senders: m.EPOf, Dest: func(srcEP int, _ int64, rng *rand.Rand) int {
		return int(m.EPOf[p.Dest(int(m.RankOf[srcEP]), ranks, rng)])
	}}
}

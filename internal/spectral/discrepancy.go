package spectral

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// DiscrepancyStats summarizes an empirical test of the expander mixing
// lemma (§II, Fig. 1): for vertex sets S, T the edge count e(S,T)
// deviates from its random expectation k|S||T|/n by at most
// λ(G)·√(|S||T|). Ramanujan graphs minimize λ(G), so SpectralFly
// exhibits the smallest deviations — the "discrepancy property" the
// paper credits for bottleneck-free sub-networks and job-placement
// robustness.
type DiscrepancyStats struct {
	Samples int
	// MaxDeviation is max |e(S,T) - k|S||T|/n| / √(|S||T|) over the
	// sampled pairs; the mixing lemma bounds it by λ(G).
	MaxDeviation float64
	// MeanDeviation is the average of the same ratio.
	MeanDeviation float64
	// MixingBound is λ(G) for reference.
	MixingBound float64
}

// Discrepancy samples random disjoint vertex-set pairs of varying sizes
// and measures normalized edge-count deviations. The mixing lemma is
// stated for k-regular graphs, so an irregular graph (e.g. after
// failures) reports zero stats, as do fewer than 4 vertices or no
// samples. Lower values mean the topology is closer to an ideal
// "bottleneck-free" network.
func Discrepancy(g *graph.Graph, samples int, seed int64) DiscrepancyStats {
	n := g.N()
	k, regular := g.Regularity()
	if n < 4 || samples <= 0 || !regular {
		return DiscrepancyStats{}
	}
	rng := rand.New(rand.NewSource(seed))
	st := DiscrepancyStats{
		Samples:     samples,
		MixingBound: Analyze(g, Options{Seed: seed}).LambdaG(),
	}
	inS := make([]bool, n)
	inT := make([]bool, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for s := 0; s < samples; s++ {
		// Random disjoint S, T with sizes uniform in [n/16, n/4].
		lo, hi := n/16, n/4
		if lo < 1 {
			lo = 1
		}
		if hi <= lo {
			hi = lo + 1
		}
		sizeS := lo + rng.Intn(hi-lo)
		sizeT := lo + rng.Intn(hi-lo)
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := range inS {
			inS[i], inT[i] = false, false
		}
		for _, v := range perm[:sizeS] {
			inS[v] = true
		}
		for _, v := range perm[sizeS : sizeS+sizeT] {
			inT[v] = true
		}
		// e(S,T): edges with one endpoint in each (S, T disjoint).
		var eST int
		for u := 0; u < n; u++ {
			if !inS[u] {
				continue
			}
			for _, v := range g.Neighbors(u) {
				if inT[v] {
					eST++
				}
			}
		}
		expected := float64(k) * float64(sizeS) * float64(sizeT) / float64(n)
		dev := math.Abs(float64(eST)-expected) / math.Sqrt(float64(sizeS)*float64(sizeT))
		if dev > st.MaxDeviation {
			st.MaxDeviation = dev
		}
		st.MeanDeviation += dev
	}
	st.MeanDeviation /= float64(samples)
	return st
}

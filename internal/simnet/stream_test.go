package simnet

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// refPercentile is an independent nearest-rank reference: the smallest
// sorted value whose cumulative fraction reaches p.
func refPercentile(v []int64, p float64) int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i := range s {
		if float64(i+1)/float64(len(s)) >= p {
			return s[i]
		}
	}
	return s[len(s)-1]
}

// digestOf folds v into a fresh latency digest.
func digestOf(v []int64) *latDigest {
	d := &latDigest{}
	for _, x := range v {
		d.add(x)
	}
	return d
}

// TestPercentileNearestRank is the regression test for the truncated
// rank index: int(p*(len-1)) reported below the requested quantile
// (len=50, p=0.99 picked element 48 ≈ P96, not P99). The digest's
// quantile must be the nearest-rank quantile of everything added.
func TestPercentileNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 49, 50, 51, 100, 1000} {
		for _, p := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 1} {
			v := make([]int64, n)
			for i := range v {
				v[i] = rng.Int63n(1 << 12)
			}
			want := refPercentile(v, p)
			if got := digestOf(v).quantile(p); got != want {
				t.Errorf("quantile(n=%d, p=%v) = %d, want %d", n, p, got, want)
			}
		}
	}
	// The motivating case, explicitly: 50 distinct samples, P99 must be
	// the maximum (rank ⌈0.99·50⌉ = 50), not element 48.
	v := make([]int64, 50)
	for i := range v {
		v[i] = int64(i)
	}
	if got := digestOf(v).quantile(0.99); got != 49 {
		t.Errorf("P99 of 0..49 = %d, want 49 (nearest rank)", got)
	}
}

// TestArrivalClockMeanGap pins the satellite fix for the truncated
// Poisson clock: the generator carries the fractional remainder and
// rounds each arrival to the nearest cycle, so the realized mean
// inter-arrival gap matches PacketFlits/load.
func TestArrivalClockMeanGap(t *testing.T) {
	const (
		meanGap = float64(PacketFlits) / 0.3 // 30% load
		n       = 200_000
	)
	g := epGen{}
	g.src.state = mixSeed(99, 0)
	g.rng = rand.New(&g.src)
	prev := int64(0)
	var sum float64
	for i := 0; i < n; i++ {
		at := g.next(meanGap)
		if at < prev {
			t.Fatalf("arrival clock went backwards: %d after %d", at, prev)
		}
		if want := int64(g.t + 0.5); at != want {
			t.Fatalf("arrival %d not round-to-nearest of continuous clock %v", at, g.t)
		}
		sum += float64(at - prev)
		prev = at
	}
	got := sum / n
	if rel := math.Abs(got-meanGap) / meanGap; rel > 0.01 {
		t.Errorf("realized mean gap %.3f vs nominal %.3f (rel err %.4f)", got, meanGap, rel)
	}
}

// TestRunLoadPatternSkips pins the skip-accounting semantics: a
// sender's draws returning the source itself or an out-of-range id
// (-1 included) are counted in Stats.PatternSkips (no redraw), while
// an endpoint outside Workload.Senders is never asked and counts
// nothing.
func TestRunLoadPatternSkips(t *testing.T) {
	g := lineGraph(2)
	nw := mustNet(t, g, 2, runConfig{seed: 3}) // endpoints 0..3
	const msgs = 5
	dest := func(src int, _ int64, rng *rand.Rand) int {
		switch src {
		case 0:
			return 0 // fixed point: self-send
		case 1:
			return -1 // no destination
		case 2:
			return 99 // out of range
		default:
			return 0 // valid
		}
	}
	st := nw.RunLoad(Workload{Senders: []int32{0, 2, 3}, Dest: dest}, 0.5, msgs)
	if st.PatternSkips != 2*msgs {
		t.Errorf("PatternSkips %d want %d (self + out-of-range draws)", st.PatternSkips, 2*msgs)
	}
	if st.Offered != msgs {
		t.Errorf("Offered %d want %d (only endpoint 3 participates)", st.Offered, msgs)
	}
	if st.Delivered != msgs {
		t.Errorf("Delivered %d want %d", st.Delivered, msgs)
	}
	// With every endpoint sending, endpoint 1's -1 is one more skip.
	if st := nw.RunLoad(Workload{Dest: dest}, 0.5, msgs); st.PatternSkips != 3*msgs || st.Offered != msgs {
		t.Errorf("all senders: PatternSkips %d Offered %d, want %d and %d", st.PatternSkips, st.Offered, 3*msgs, msgs)
	}
}

// TestRunLoadRejectsBadSenders: a sender list that is not strictly
// increasing, or names an endpoint past the last, panics before
// anything is simulated.
func TestRunLoadRejectsBadSenders(t *testing.T) {
	nw := mustNet(t, lineGraph(2), 2, runConfig{seed: 3}) // endpoints 0..3
	for _, senders := range [][]int32{{1, 1}, {2, 0}, {0, 4}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("senders %v: no panic", senders)
				}
			}()
			nw.RunLoad(Workload{Senders: senders, Dest: uniformWorkload(4).Dest}, 0.5, 2)
		}()
	}
}

// TestSilentSourcesAskedOnce pins what Workload.Senders means to
// RunLoad: an endpoint outside the sender set is never asked for a
// destination and never fires an injection, and a sender is asked
// exactly once per message. The run is the same for every shard
// count.
func TestSilentSourcesAskedOnce(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	tab := routing.NewTable(g)
	const msgs = 6
	var base Stats
	for _, w := range []int{1, 2, 4} {
		nw := build(t, Config{Topo: g, Concentration: 4}, tab, runConfig{seed: 9, workers: w, policy: routing.UGALL})
		nep := nw.Endpoints()
		var even []int32
		for ep := 0; ep < nep; ep += 2 {
			even = append(even, int32(ep))
		}
		asked := make([]atomic.Int32, nep)
		st := nw.RunLoad(Workload{Senders: even, Dest: func(src int, _ int64, rng *rand.Rand) int {
			asked[src].Add(1)
			return 2 * rng.Intn(nep/2) // another sending endpoint (or itself)
		}}, 0.4, msgs)
		for ep := range asked {
			want := int32(msgs)
			if ep%2 == 1 {
				want = 0
			}
			if got := asked[ep].Load(); got != want {
				t.Fatalf("Workers=%d: endpoint %d asked %d times, want %d", w, ep, got, want)
			}
		}
		if st.Offered+st.PatternSkips != nep/2*msgs || st.Delivered != st.Offered {
			t.Fatalf("Workers=%d: offered %d + skipped %d (delivered %d), want %d sends", w,
				st.Offered, st.PatternSkips, st.Delivered, nep/2*msgs)
		}
		st.MemoryBytes = 0
		if w == 1 {
			base = st
		} else if !st.Equal(base) {
			t.Errorf("Workers=%d stats differ from Workers=1:\n%+v\n%+v", w, st, base)
		}
	}
}

func TestRunBatchesPatternSkips(t *testing.T) {
	g := lineGraph(2)
	nw := mustNet(t, g, 1, runConfig{seed: 1})
	st := mustBatches(t, nw, [][]Message{{
		{SrcEP: 0, DstEP: 0},  // self
		{SrcEP: 0, DstEP: 9},  // out of range
		{SrcEP: 0, DstEP: -1}, // out of range
		{SrcEP: 0, DstEP: 1},  // valid
	}})
	if st.PatternSkips != 3 || st.Offered != 1 || st.Delivered != 1 {
		t.Errorf("skips/offered/delivered = %d/%d/%d want 3/1/1",
			st.PatternSkips, st.Offered, st.Delivered)
	}
}

// TestLatDigestExactMerge: the histogram digest is exact at any
// delivery count, and splitting the deliveries over several digests
// and merging them — as a sharded run folds its shards — gives the
// same mean and quantiles as one digest over everything.
func TestLatDigestExactMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var all []int64
	var sum float64
	parts := make([]latDigest, 3)
	for i := 0; i < 50_000; i++ {
		v := rng.Int63n(1 << 12)
		parts[rng.Intn(len(parts))].add(v)
		all = append(all, v)
		sum += float64(v)
	}
	var d latDigest
	for i := range parts {
		d.merge(&parts[i])
	}
	for _, p := range []float64{0.5, 0.99, 1} {
		if got, want := d.quantile(p), refPercentile(all, p); got != want {
			t.Errorf("merged quantile(%v) = %d, want exact %d", p, got, want)
		}
	}
	if got, want := d.mean(), sum/float64(len(all)); got != want {
		t.Errorf("merged mean %v, want %v", got, want)
	}
	if d.count != int64(len(all)) {
		t.Errorf("merged count %d, want %d", d.count, len(all))
	}
}

// disconnectedNet builds a two-component network (0–1 | 2–3): packets
// between components are unreachable under every policy.
func disconnectedNet(t *testing.T, policy routing.Policy) *Network {
	t.Helper()
	bld := graph.NewBuilder(4)
	bld.AddEdge(0, 1)
	bld.AddEdge(2, 3)
	g := bld.Build()
	tab := routing.NewTable(g)
	nw := build(t, Config{Topo: g, Concentration: 1}, tab, runConfig{policy: policy, seed: 3})
	return nw
}

// TestPathCostUnreachable: UGAL-G's whole-path probe must report
// failure (not a bogus zero cost) when the sampled path crosses a
// partition, so decidePolicy falls back to minimal routing.
func TestPathCostUnreachable(t *testing.T) {
	nw := disconnectedNet(t, routing.UGALG)
	nw.reset()
	if cost, ok := nw.pathCost(0, 2, 0); ok {
		t.Errorf("pathCost across components reported ok with cost %d", cost)
	}
	if cost, ok := nw.pathCost(0, 1, 0); !ok || cost <= 0 {
		t.Errorf("pathCost within component = (%d, %v), want positive cost", cost, ok)
	}
}

// TestUGALGMinimalFallbackNoIntermediate: with no viable Valiant
// intermediate (two-router graph: every candidate is src or dst),
// UGAL-G must settle on the minimal path instead of diverting.
func TestUGALGMinimalFallbackNoIntermediate(t *testing.T) {
	g := lineGraph(2)
	tab := routing.NewTable(g)
	nw := build(t, Config{Topo: g, Concentration: 1}, tab, runConfig{policy: routing.UGALG, seed: 2})
	nw.reset()
	p := packet{srcEP: 0, dstEP: 1, dstRouter: 1, interm: -2}
	nw.decidePolicy(&p, 0, 0)
	if p.interm != -1 || p.phase != 1 {
		t.Errorf("UGAL-G without intermediates: interm=%d phase=%d, want minimal fallback", p.interm, p.phase)
	}
	if nw.stats.ValiantTaken != 0 {
		t.Errorf("ValiantTaken %d on the fallback path", nw.stats.ValiantTaken)
	}
}

// TestUGALGDamagedRun: an end-to-end UGAL-G run across a partitioned
// topology must deliver the reachable traffic and drop the rest — no
// panic, no stranded packets.
func TestUGALGDamagedRun(t *testing.T) {
	nw := disconnectedNet(t, routing.UGALG)
	st := mustBatches(t, nw, [][]Message{{
		{SrcEP: 0, DstEP: 1}, // within component A
		{SrcEP: 0, DstEP: 2}, // crosses the partition: dropped
		{SrcEP: 2, DstEP: 3}, // within component B
	}})
	if st.Offered != 3 || st.Delivered != 2 || st.Dropped != 1 {
		t.Errorf("offered/delivered/dropped = %d/%d/%d want 3/2/1",
			st.Offered, st.Delivered, st.Dropped)
	}
}

// TestRunBatchesCarryover pins the round-boundary rule: every port and
// NIC free time is raised to the drain clock between rounds, so each
// round behaves as a fresh run time-shifted to the previous round's
// makespan — makespans compose additively on a deterministic path.
func TestRunBatchesCarryover(t *testing.T) {
	g := lineGraph(3)
	mk := func() *Network { return mustNet(t, g, 1, runConfig{seed: 4}) }
	r1 := mustBatches(t, mk(), [][]Message{{{SrcEP: 0, DstEP: 2}}})
	r2 := mustBatches(t, mk(), [][]Message{{{SrcEP: 2, DstEP: 0}}})
	nw := mk()
	both := mustBatches(t, nw, [][]Message{
		{{SrcEP: 0, DstEP: 2}},
		{{SrcEP: 2, DstEP: 0}},
	})
	if want := r1.Makespan + r2.Makespan; both.Makespan != want {
		t.Errorf("two-round makespan %d, want %d + %d = %d (round 2 must start at round 1's clock)",
			both.Makespan, r1.Makespan, r2.Makespan, want)
	}
	// After the final round the carryover has raised every free time to
	// the final clock: a subsequent round could not start early.
	for r := range nw.portFree {
		for i, f := range nw.portFree[r] {
			if f < both.Makespan {
				t.Errorf("portFree[%d][%d] = %d below final clock %d", r, i, f, both.Makespan)
			}
		}
	}
	for i := range nw.injFree {
		if nw.injFree[i] < both.Makespan || nw.ejFree[i] < both.Makespan {
			t.Errorf("NIC free times (%d, %d) below final clock %d",
				nw.injFree[i], nw.ejFree[i], both.Makespan)
		}
	}
}

// TestRunLoadStreamBacklogBounded: the point of streaming injection —
// the event queue's high-water mark tracks endpoints + in-flight
// packets, not the run's total message count.
func TestRunLoadStreamBacklogBounded(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	nw := build(t, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{seed: 9})
	nep := nw.Endpoints()
	pattern := uniformWorkload(nep)
	const msgs = 40
	st := nw.RunLoad(pattern, 0.2, msgs)
	if st.Delivered == 0 {
		t.Fatal("idle run")
	}
	total := nep * msgs
	// The wheel and overflow high-water marks add up to at least the
	// queue's joint peak.
	if peak := nw.sched.wpeak + nw.sched.opeak; peak >= total/2 {
		t.Errorf("event-queue peak %d is O(total traffic %d); streaming should keep it near the in-flight population",
			peak, total)
	}
	if len(nw.packets) >= total/2 {
		t.Errorf("arena high-water %d is O(total traffic %d); freelist recycling failed",
			len(nw.packets), total)
	}
}

package simnet

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
)

func lpsNetwork(t testing.TB, cfg Config) (*Network, *routing.Table) {
	t.Helper()
	inst, err := topo.LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topo = inst.G
	table := routing.NewTable(inst.G)
	nw, err := New(cfg, table)
	if err != nil {
		t.Fatal(err)
	}
	return nw, table
}

// TestRunBatchesAggregatesLatency is the regression test for the motif
// latency fold: per-round drains compute MeanLatency/P99Latency, but
// before the fix they were never folded into the aggregate Stats, so
// every motif run reported 0 for both.
func TestRunBatchesAggregatesLatency(t *testing.T) {
	nw, _ := lpsNetwork(t, Config{Concentration: 2, Seed: 5})
	nep := nw.Endpoints()
	rounds := make([][]Message, 3)
	for r := range rounds {
		for ep := 0; ep < nep; ep++ {
			rounds[r] = append(rounds[r], Message{SrcEP: ep, DstEP: (ep + 7 + r) % nep})
		}
	}
	st := mustBatches(t, nw, rounds)
	if st.Delivered != 3*nep {
		t.Fatalf("delivered %d want %d", st.Delivered, 3*nep)
	}
	if st.MeanLatency <= 0 {
		t.Errorf("aggregate MeanLatency %v, want > 0 (round latencies not folded)", st.MeanLatency)
	}
	if st.P99Latency <= 0 {
		t.Errorf("aggregate P99Latency %v, want > 0 (round latencies not folded)", st.P99Latency)
	}
	if float64(st.P99Latency) < st.MeanLatency {
		t.Errorf("P99 %d below mean %.1f", st.P99Latency, st.MeanLatency)
	}
	if st.P99Latency > st.MaxLatency {
		t.Errorf("P99 %d exceeds max %d", st.P99Latency, st.MaxLatency)
	}
	// Deterministic: the aggregate reproduces exactly on a clone.
	st2 := mustBatches(t, nw.Clone(), rounds)
	if !st.Equal(st2) {
		t.Errorf("aggregate stats not deterministic:\n%+v\n%+v", st, st2)
	}
}

// TestCloneDeterminism: a clone with the same seed reproduces the
// original's statistics exactly, and identical runs are identical.
func TestCloneDeterminism(t *testing.T) {
	nw, _ := lpsNetwork(t, Config{Concentration: 2, Policy: routing.UGALL, Seed: 42})
	nep := nw.Endpoints()
	pattern := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nep) }
	a := nw.RunLoad(pattern, 0.4, 8)
	b := nw.RunLoad(pattern, 0.4, 8) // reuse of the same instance
	c := nw.Clone().RunLoad(pattern, 0.4, 8)
	if !a.Equal(b) {
		t.Errorf("rerun on same instance diverged:\n%+v\n%+v", a, b)
	}
	if !a.Equal(c) {
		t.Errorf("clone diverged from original:\n%+v\n%+v", a, c)
	}
}

// TestCloneConcurrentRuns drives many clones of one instance (shared
// routing table and port maps) concurrently; under -race this verifies
// the immutable/mutable state split.
func TestCloneConcurrentRuns(t *testing.T) {
	nw, _ := lpsNetwork(t, Config{Concentration: 2, Policy: routing.UGALL, Seed: 1})
	nep := nw.Endpoints()
	pattern := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nep) }
	want := nw.Clone().RunLoad(pattern, 0.3, 5)
	var wg sync.WaitGroup
	got := make([]Stats, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = nw.Clone().RunLoad(pattern, 0.3, 5)
		}(i)
	}
	wg.Wait()
	for i, st := range got {
		if !st.Equal(want) {
			t.Errorf("concurrent clone %d diverged:\n%+v\n%+v", i, st, want)
		}
	}
}

// TestSetPolicySetSeed: clone overrides change results the way a fresh
// New with that config would.
func TestSetPolicySetSeed(t *testing.T) {
	nw, table := lpsNetwork(t, Config{Concentration: 2, Policy: routing.Minimal, Seed: 3})
	nep := nw.Endpoints()
	pattern := func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nep) }

	cl := nw.Clone()
	cl.SetPolicy(routing.Valiant)
	cl.SetSeed(9)
	got := cl.RunLoad(pattern, 0.3, 5)

	fresh, err := New(Config{Topo: table.G, Concentration: 2, Policy: routing.Valiant, Seed: 9}, table)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.RunLoad(pattern, 0.3, 5)
	if !got.Equal(want) {
		t.Errorf("clone with overrides diverged from fresh instance:\n%+v\n%+v", got, want)
	}
	if got.ValiantTaken == 0 {
		t.Error("Valiant policy override not applied (no Valiant paths)")
	}
}

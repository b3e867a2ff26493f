package simnet

import (
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topo"
)

// lpsNetwork builds a Network over LPS(11,7) at concentration 2 with
// the per-run settings rc.
func lpsNetwork(t testing.TB, rc runConfig) *Network {
	t.Helper()
	inst, err := topo.LPS(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	return build(t, Config{Topo: inst.G, Concentration: 2}, routing.NewTable(inst.G), rc)
}

// TestRunBatchesAggregatesLatency is the regression test for the motif
// latency fold: per-round drains compute MeanLatency/P99Latency, but
// before the fix they were never folded into the aggregate Stats, so
// every motif run reported 0 for both.
func TestRunBatchesAggregatesLatency(t *testing.T) {
	nw := lpsNetwork(t, runConfig{seed: 5})
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
	nw := lpsNetwork(t, runConfig{policy: routing.UGALL, seed: 42})
	nep := nw.Endpoints()
	pattern := uniformWorkload(nep)
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
	nw := lpsNetwork(t, runConfig{policy: routing.UGALL, seed: 1})
	nep := nw.Endpoints()
	pattern := uniformWorkload(nep)
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

// TestCloneCopiesRunSettings: a clone carries every per-run setting of
// the Network it was cloned from. For each setting, a Network with
// only that setting changed runs differently from a default one, and
// its clone reproduces its statistics exactly. The shard count changes
// only MemoryBytes, which counts the shards.
func TestCloneCopiesRunSettings(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	dead := make([]bool, g.N())
	dead[3] = true
	run := func(nw *Network) Stats { return nw.RunLoad(uniformWorkload(nw.Endpoints()), 0.3, 5) }
	base := run(lpsNetwork(t, runConfig{}))
	for _, tc := range []struct {
		name string
		rc   runConfig
	}{
		{"policy", runConfig{policy: routing.Valiant}},
		{"seed", runConfig{seed: 9}},
		{"workers", runConfig{workers: 4}},
		{"dead", runConfig{dead: dead}},
		{"schedule", runConfig{sched: fault.Schedule{{Cycle: 100, Kill: []int32{0}}}}},
		{"latencies", runConfig{lats: testLatTable(g)}},
	} {
		nw := lpsNetwork(t, tc.rc)
		cl := nw.Clone()
		st := run(nw)
		if got := run(cl); !got.Equal(st) {
			t.Errorf("%s: clone diverged from original:\n%+v\n%+v", tc.name, got, st)
		}
		if tc.name == "workers" {
			if st.MemoryBytes == base.MemoryBytes {
				t.Errorf("workers: MemoryBytes %d unchanged from one shard", st.MemoryBytes)
			}
		} else if st.Equal(base) {
			t.Errorf("%s: the setting did not change the run", tc.name)
		}
	}
}

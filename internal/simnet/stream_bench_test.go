package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
)

// class1StreamNet builds the class-1 gate instance: LPS(11,7) with
// concentration 4 (672 endpoints), the size of the Quick-scale sweep
// topologies.
func class1StreamNet(tb testing.TB) *Network {
	tb.Helper()
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	nw := build(tb, Config{Topo: inst.G, Concentration: 4}, tab, runConfig{seed: 11})
	return nw
}

const (
	streamGateLoad = 0.35
	streamGateMsgs = 64
)

// uniformWorkload sends from every endpoint to a uniformly drawn one.
func uniformWorkload(nep int) Workload {
	return Workload{Dest: func(src int, _ int64, rng *rand.Rand) int { return rng.Intn(nep) }}
}

// endpointRange lists endpoints 0..n-1, a sender set.
func endpointRange(n int) []int32 {
	eps := make([]int32, n)
	for i := range eps {
		eps[i] = int32(i)
	}
	return eps
}

// streamMemoryGrowth bounds how much the class-1 working set may grow
// when the run offers 16x more traffic (256 vs 16 messages per
// endpoint). A streaming run loop holds only the in-flight packets,
// one pending injection per endpoint and a latency histogram as wide
// as the largest latency, so its footprint is flat in the message
// count; retaining per-message state would grow it ~16x.
const streamMemoryGrowth = 1.25

// TestRunLoadStreamMemoryGate is the streaming run loop's memory gate:
// at the class-1 load point, MemoryBytes at 256 messages per endpoint
// stays within streamMemoryGrowth of the 16-message run. Memory
// accounting is deterministic, so the gate always arms.
func TestRunLoadStreamMemoryGate(t *testing.T) {
	nw := class1StreamNet(t)
	pattern := uniformWorkload(nw.Endpoints())
	small := nw.RunLoad(pattern, streamGateLoad, 16)
	large := nw.RunLoad(pattern, streamGateLoad, 256)
	if small.Delivered == 0 || large.Delivered <= small.Delivered {
		t.Fatalf("idle gate run: %d and %d delivered", small.Delivered, large.Delivered)
	}
	growth := float64(large.MemoryBytes) / float64(small.MemoryBytes)
	t.Logf("working set %d B at 16 msgs/EP, %d B at 256 (%.3fx)", small.MemoryBytes, large.MemoryBytes, growth)
	if growth > streamMemoryGrowth {
		t.Errorf("working set grew %.3fx from 16 to 256 msgs/EP, over the %.2fx bound", growth, streamMemoryGrowth)
	}
}

// BenchmarkRunLoadStream measures the run loop at the class-1 gate
// point, reporting the working set alongside ns/op.
func BenchmarkRunLoadStream(b *testing.B) {
	nw := class1StreamNet(b)
	pattern := uniformWorkload(nw.Endpoints())
	var st Stats
	for i := 0; i < b.N; i++ {
		st = nw.RunLoad(pattern, streamGateLoad, streamGateMsgs)
	}
	b.ReportMetric(float64(st.MemoryBytes), "mem-bytes")
}

package simnet

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
)

// allDeadNet builds a small network whose routers are all failed —
// every message dies at the NIC, so no latency sample is ever taken.
func allDeadNet(t *testing.T) *Network {
	t.Helper()
	g := lineGraph(4)
	dead := make([]bool, g.N())
	for i := range dead {
		dead[i] = true
	}
	return mustNet(t, g, 2, runConfig{seed: 7, dead: dead})
}

// TestRunLoadAllRoutersDead is the regression test for the empty-run
// percentile panic: a fully dead (or partitioned) network delivers
// nothing, and the statistics fold must report zeros instead of
// indexing an empty latency slice.
func TestRunLoadAllRoutersDead(t *testing.T) {
	nw := allDeadNet(t)
	nep := nw.Endpoints()
	pattern := uniformWorkload(nep)
	st := nw.RunLoad(pattern, 0.3, 5)
	if st.Delivered != 0 {
		t.Fatalf("delivered %d on an all-dead network", st.Delivered)
	}
	if st.Offered == 0 {
		t.Fatal("workload generated no messages; test is vacuous")
	}
	if st.Dropped != st.Offered {
		t.Fatalf("dropped %d want %d", st.Dropped, st.Offered)
	}
	if st.P99Latency != 0 || st.MeanLatency != 0 || st.MaxLatency != 0 {
		t.Fatalf("latency stats non-zero on an empty run: %+v", st)
	}
}

func TestRunBatchesAllRoutersDead(t *testing.T) {
	nw := allDeadNet(t)
	rounds := [][]Message{
		{{SrcEP: 0, DstEP: 3}, {SrcEP: 2, DstEP: 5}},
		{{SrcEP: 1, DstEP: 6}},
	}
	st := mustBatches(t, nw, rounds)
	if st.Delivered != 0 || st.Offered != 3 || st.Dropped != 3 {
		t.Fatalf("accounting wrong on all-dead batches: %+v", st)
	}
	if st.P99Latency != 0 || st.MeanLatency != 0 {
		t.Fatalf("latency stats non-zero on an empty batch run: %+v", st)
	}
}

// TestSaturationLoadAllRoutersDead pins the bail-out: with nothing
// deliverable there is no knee, and the search must return 0 rather
// than bisect against a meaningless zero-tail limit.
func TestSaturationLoadAllRoutersDead(t *testing.T) {
	nw := allDeadNet(t)
	nep := nw.Endpoints()
	pattern := uniformWorkload(nep)
	if sat := nw.SaturationLoad(pattern, 4); sat != 0 {
		t.Fatalf("saturation %v on an all-dead network, want 0", sat)
	}
}

func TestPercentileEmpty(t *testing.T) {
	var d latDigest
	if p := d.quantile(0.99); p != 0 {
		t.Fatalf("quantile of an empty digest = %d, want 0", p)
	}
	d.add(42)
	if p := d.quantile(0.99); p != 42 {
		t.Fatalf("quantile of {42} = %d, want 42", p)
	}
	d.reset()
	if p := d.quantile(0.5); p != 0 || len(d.hist) != 0 {
		t.Fatalf("reset digest: quantile %d, %d histogram bins, want 0 and 0", p, len(d.hist))
	}
}

// BenchmarkRunLoadStore measures the simulator's end-to-end cost per
// hop (ns/hop) of a UGAL-L load run on the class-1 LPS instance over
// each table backend; the per-hop next-hop choice (NextHopSlot) reads
// the backend's rows.
func BenchmarkRunLoadStore(b *testing.B) {
	inst := topo.MustLPS(23, 11)
	for _, opts := range []routing.TableOptions{
		{Store: routing.StoreDense},
		{Store: routing.StorePacked},
		{Store: routing.StoreLazy},
	} {
		b.Run(opts.Store.String(), func(b *testing.B) {
			tab := routing.NewTableOpts(inst.G, opts)
			nw := build(b, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{seed: 11, policy: routing.UGALL})
			nep := nw.Endpoints()
			pattern := uniformWorkload(nep)
			var hops int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := nw.RunLoad(pattern, 0.4, 4)
				hops += st.TotalHops
			}
			b.StopTimer()
			if hops > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
			}
		})
	}
}

package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

func TestSimulationOnDamagedTopologyDropsGracefully(t *testing.T) {
	// Split topology: two components. Packets between components must be
	// dropped (not delivered, no hang); intra-component traffic flows.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	tab := routing.NewTable(g)
	nw := build(t, Config{Topo: g, Concentration: 1}, tab, runConfig{seed: 1})
	st := mustBatches(t, nw, [][]Message{{
		{SrcEP: 0, DstEP: 2}, // same component: delivered
		{SrcEP: 0, DstEP: 5}, // cross component: dropped
		{SrcEP: 3, DstEP: 5}, // same component: delivered
	}})
	if st.Delivered != 2 {
		t.Fatalf("delivered %d want 2 (one message must drop)", st.Delivered)
	}
}

func TestSimulationAfterEdgeFailures(t *testing.T) {
	// Remove 20% of LPS(11,7) links; the survivors stay connected and
	// all traffic must still be delivered over longer paths.
	inst := topo.MustLPS(11, 7)
	rng := rand.New(rand.NewSource(5))
	damaged := inst.G.RemoveEdges(fault.SampleLinks(inst.G, 0.2, rng))
	if !damaged.IsConnected() {
		t.Skip("rare: sample disconnected")
	}
	tab := routing.NewTable(damaged)
	nw := build(t, Config{Topo: damaged, Concentration: 2}, tab, runConfig{seed: 2})
	pattern := uniformWorkload(nw.Endpoints())
	st := nw.RunLoad(pattern, 0.2, 10)
	if st.Delivered == 0 {
		t.Fatal("no deliveries on damaged topology")
	}
	// Mean hops must be at least the intact topology's average distance.
	intactTab := routing.NewTable(inst.G)
	intactNW := build(t, Config{Topo: inst.G, Concentration: 2}, intactTab, runConfig{seed: 2})
	intactStats := intactNW.RunLoad(pattern, 0.2, 10)
	if st.MeanHops < intactStats.MeanHops {
		t.Errorf("damaged mean hops %.3f below intact %.3f", st.MeanHops, intactStats.MeanHops)
	}
}

func TestOfferedDroppedAccounting(t *testing.T) {
	// Two components: the cross-component message must be counted as
	// offered and dropped, never delivered.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	tab := routing.NewTable(g)
	nw := build(t, Config{Topo: g, Concentration: 1}, tab, runConfig{seed: 1})
	st := mustBatches(t, nw, [][]Message{{
		{SrcEP: 0, DstEP: 2},
		{SrcEP: 0, DstEP: 5},
		{SrcEP: 3, DstEP: 5},
	}})
	if st.Offered != 3 || st.Delivered != 2 || st.Dropped != 1 {
		t.Fatalf("offered/delivered/dropped = %d/%d/%d, want 3/2/1", st.Offered, st.Delivered, st.Dropped)
	}
	if f := st.DeliveredFraction(); f != 2.0/3.0 {
		t.Fatalf("delivered fraction %v want 2/3", f)
	}
}

func TestDeadRoutersDropAtNIC(t *testing.T) {
	// Ring of 4 routers, router 2 dead (no links to it, mask set):
	// messages touching router 2's endpoint drop, the rest deliver.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	tab := routing.NewTable(g)
	dead := []bool{false, false, true, false}
	nw := build(t, Config{Topo: g, Concentration: 1}, tab, runConfig{seed: 1, dead: dead})
	st := mustBatches(t, nw, [][]Message{{
		{SrcEP: 0, DstEP: 1}, // alive: delivered
		{SrcEP: 0, DstEP: 2}, // to dead router: dropped
		{SrcEP: 2, DstEP: 3}, // from dead router: dropped
	}})
	if st.Offered != 3 || st.Delivered != 1 || st.Dropped != 2 {
		t.Fatalf("offered/delivered/dropped = %d/%d/%d, want 3/1/2", st.Offered, st.Delivered, st.Dropped)
	}
	// The mask is per-clone overridable and length-checked.
	clone := nw.Clone()
	if err := clone.SetDeadRouters(nil); err != nil {
		t.Fatal(err)
	}
	st = mustBatches(t, clone, [][]Message{{{SrcEP: 0, DstEP: 2}}})
	if st.Delivered != 0 {
		// Router 2 has no links, so traffic to it still cannot arrive —
		// but with the mask cleared it is offered and dropped in-network.
		t.Fatalf("isolated router unexpectedly reachable: %+v", st)
	}
	// A wrong-length mask is an error that keeps the previous mask.
	if err := nw.SetDeadRouters([]bool{true}); err == nil {
		t.Error("SetDeadRouters accepted a wrong-length mask")
	}
	st = mustBatches(t, nw, [][]Message{{{SrcEP: 0, DstEP: 1}, {SrcEP: 0, DstEP: 2}}})
	if st.Delivered != 1 || st.Dropped != 1 {
		t.Errorf("rejected mask replaced the dead-router mask: delivered/dropped = %d/%d, want 1/1", st.Delivered, st.Dropped)
	}
}

func TestValiantOnDamagedTopologyRoutesAroundFailures(t *testing.T) {
	// Valiant must not strand packets by picking unreachable
	// intermediates: on a partitioned graph, every message between
	// connected endpoints still arrives.
	inst := topo.MustLPS(11, 7)
	rng := rand.New(rand.NewSource(11))
	damaged := inst.G.RemoveEdges(fault.SampleLinks(inst.G, 0.3, rng))
	tab := routing.NewTable(damaged)
	nw := build(t, Config{Topo: damaged, Concentration: 1}, tab, runConfig{policy: routing.Valiant, seed: 4})
	// All-pairs-ish batch: every endpoint sends to the next one.
	var round []Message
	for ep := 0; ep < nw.Endpoints(); ep++ {
		round = append(round, Message{SrcEP: ep, DstEP: (ep + 7) % nw.Endpoints()})
	}
	st := mustBatches(t, nw, [][]Message{round})
	// Count the truly reachable pairs; exactly those must be delivered.
	reachable := 0
	for _, m := range round {
		if tab.HopDist(m.SrcEP, m.DstEP) >= 0 {
			reachable++
		}
	}
	if st.Delivered != reachable {
		t.Fatalf("delivered %d of %d reachable pairs (offered %d): Valiant stranded packets",
			st.Delivered, reachable, st.Offered)
	}
}

func TestUGALUnderHotspotSheddsToValiant(t *testing.T) {
	// All endpoints hammer one destination router region: UGAL-L should
	// divert a visible fraction of packets to Valiant paths, unlike the
	// uncongested case.
	inst := topo.MustSlimFly(7)
	tab := routing.NewTable(inst.G)
	nw := build(t, Config{Topo: inst.G, Concentration: 2}, tab, runConfig{policy: routing.UGALL, seed: 3})
	hot := uniformWorkload(4) // 4 hot endpoints
	st := nw.RunLoad(hot, 0.6, 20)
	if st.Delivered == 0 {
		t.Fatal("idle")
	}
	frac := float64(st.ValiantTaken) / float64(st.Delivered)
	if frac < 0.02 {
		t.Errorf("UGAL-L diverted only %.1f%% under a hotspot", 100*frac)
	}
}

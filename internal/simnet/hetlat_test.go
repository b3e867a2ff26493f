package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// testLatTable builds a deterministic non-uniform per-port latency
// table: each physical cable's latency depends only on its unordered
// endpoint pair (both directions agree, like the wire model), spread
// over 1..23 cycles so link costs genuinely differ.
func testLatTable(g *graph.Graph) *LinkLatencies {
	port := make([][]int64, g.N())
	for r := range port {
		nbs := g.Neighbors(r)
		row := make([]int64, len(nbs))
		for i, w := range nbs {
			a, b := int64(r), int64(w)
			if a > b {
				a, b = b, a
			}
			row[i] = 1 + (a*31+b*17)%23
		}
		port[r] = row
	}
	return &LinkLatencies{Port: port, NIC: 7}
}

// TestTenantScheduleConservation runs a multi-tenant workload with
// heterogeneous wires and a mid-run kill/revive schedule at several
// shard counts: the per-tenant accounting must satisfy the same
// conservation identity as the global counters (offered = delivered +
// dropped, per tenant and in total), tenant rows must be invariant
// across every Workers value, and unowned endpoints must contribute
// nothing.
func TestTenantScheduleConservation(t *testing.T) {
	g := chordRing(24)
	tab := routing.NewTable(g)
	lats := testLatTable(g)
	sched := fault.Schedule{
		{Cycle: 300, Cut: [][2]int32{{0, 1}, {5, 6}}, Kill: []int32{9}},
		{Cycle: 900, Restore: [][2]int32{{0, 1}, {5, 6}}, Revive: []int32{9}},
	}
	// Endpoints 0..15 are tenant 0, 16..39 tenant 1, 40..47 unowned.
	nep := 48
	ofEP := make([]int32, nep)
	for ep := range ofEP {
		switch {
		case ep < 16:
			ofEP[ep] = 0
		case ep < 40:
			ofEP[ep] = 1
		default:
			ofEP[ep] = -1
		}
	}
	// Tenant-internal traffic; unowned endpoints are not senders.
	pattern := Workload{Senders: endpointRange(40), Dest: func(src int, _ int64, rng *rand.Rand) int {
		if src < 16 {
			return rng.Intn(16)
		}
		return 16 + rng.Intn(24)
	}, Tenants: &TenantConfig{OfEP: ofEP, Load: []float64{0.3, 0.6}}}
	run := func(workers int) Stats {
		nw := build(t, Config{Topo: g, Concentration: 2}, tab, runConfig{seed: 4, sched: sched, workers: workers, lats: lats})
		return nw.RunLoad(pattern, 0.4, 12)
	}
	check := func(workers int, st Stats) {
		t.Helper()
		if st.Offered == 0 || st.Delivered == 0 {
			t.Fatalf("workers=%d: degenerate run %+v", workers, st)
		}
		if st.Offered != st.Delivered+st.Dropped {
			t.Errorf("workers=%d: global conservation broken: %d != %d + %d",
				workers, st.Offered, st.Delivered, st.Dropped)
		}
		if len(st.Tenants) != 2 {
			t.Fatalf("workers=%d: %d tenant rows, want 2", workers, len(st.Tenants))
		}
		sumOff, sumDel, sumDrop := 0, 0, 0
		for ti, ts := range st.Tenants {
			if ts.Offered == 0 {
				t.Errorf("workers=%d: tenant %d offered nothing", workers, ti)
			}
			if ts.Offered != ts.Delivered+ts.Dropped {
				t.Errorf("workers=%d: tenant %d conservation broken: %d != %d + %d",
					workers, ti, ts.Offered, ts.Delivered, ts.Dropped)
			}
			sumOff += ts.Offered
			sumDel += ts.Delivered
			sumDrop += ts.Dropped
		}
		// Unowned endpoints are not senders, so the tenant rows partition
		// the global counters exactly.
		if sumOff != st.Offered || sumDel != st.Delivered || sumDrop != st.Dropped {
			t.Errorf("workers=%d: tenant rows do not partition the run: %d/%d/%d vs %d/%d/%d",
				workers, sumOff, sumDel, sumDrop, st.Offered, st.Delivered, st.Dropped)
		}
	}
	base := run(1)
	check(1, base)
	for _, w := range []int{2, 3, 4, 6} {
		st := run(w)
		check(w, st)
		a, b := base, st
		a.MemoryBytes, b.MemoryBytes = 0, 0
		if !a.Equal(b) {
			t.Errorf("workers=%d tenant stats differ from workers=1:\n%+v\n%+v", w, b, a)
		}
	}
}

// TestUniformLatencyTableMatchesNil pins the reduction DESIGN §12
// relies on: a per-port table whose every entry is LinkLatency (NIC
// included) reproduces the nil-table run exactly, statistics and
// footprint, under minimal and UGAL-L routing at 1 and 4 shards.
func TestUniformLatencyTableMatchesNil(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	tab := routing.NewTable(g)
	port := make([][]int64, g.N())
	for r := range port {
		port[r] = make([]int64, g.Degree(r))
		for i := range port[r] {
			port[r][i] = LinkLatency
		}
	}
	uniform := &LinkLatencies{Port: port, NIC: LinkLatency}
	for _, pol := range []routing.Policy{routing.Minimal, routing.UGALL} {
		for _, workers := range []int{1, 4} {
			run := func(lat *LinkLatencies) Stats {
				nw := build(t, Config{Topo: g, Concentration: 2}, tab, runConfig{policy: pol, seed: 3, workers: workers, lats: lat})
				nep := nw.Endpoints()
				return nw.RunLoad(uniformWorkload(nep), 0.5, 16)
			}
			want, got := run(nil), run(uniform)
			if want.Delivered == 0 {
				t.Fatalf("%v workers=%d: idle run", pol, workers)
			}
			if !got.Equal(want) {
				t.Errorf("%v workers=%d: uniform table diverged from nil table:\n%+v\n%+v", pol, workers, got, want)
			}
		}
	}
}

package runner

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// cellKind is what a cell measures, as in sweep.Grid.measure.
type cellKind int

const (
	loadCell cellKind = iota
	saturationCell
	motifCell
)

// cellSpec is one sweep cell's per-run settings and measurement. Its
// zero value is a Minimal, one-shard, undamaged, static, uniform-wire,
// single-tenant load cell in which every endpoint sends.
type cellSpec struct {
	kind    cellKind
	policy  routing.Policy
	seed    int64
	workers int
	dead    []bool
	sched   fault.Schedule
	lats    *simnet.LinkLatencies
	// tenants, when set, rides in the load cell's workload; every
	// endpoint must be owned.
	tenants *simnet.TenantConfig
	load    float64
	msgs    int
	// ranks, when positive, restricts the load and saturation traffic
	// to a random ranks-endpoint job (traffic.NewMapping seeded with
	// seed) that sends uniformly within itself.
	ranks int
}

// cellResult is what one cell measured.
type cellResult struct {
	st  simnet.Stats
	sat float64
}

func (a cellResult) equal(b cellResult) bool { return a.st.Equal(b.st) && a.sat == b.sat }

// runCell configures nw for c and runs it. Like the sweep, it calls
// only the setters a cell needs, so a setting left over from an
// earlier cell on the same clone would change the result.
func runCell(tb testing.TB, nw *simnet.Network, c cellSpec) cellResult {
	tb.Helper()
	if c.policy != routing.Minimal {
		nw.SetPolicy(c.policy)
	}
	if c.seed != 0 {
		nw.SetSeed(c.seed)
	}
	if c.workers != 0 {
		nw.SetWorkers(c.workers)
	}
	var errs []error
	if c.dead != nil {
		errs = append(errs, nw.SetDeadRouters(c.dead))
	}
	if c.sched != nil {
		errs = append(errs, nw.SetSchedule(c.sched))
	}
	if c.lats != nil {
		errs = append(errs, nw.SetLinkLatencies(c.lats))
	}
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	nep := nw.Endpoints()
	uniform := simnet.Workload{Dest: func(_ int, _ int64, rng *rand.Rand) int { return rng.Intn(nep) }}
	if c.ranks > 0 {
		mp, err := traffic.NewMapping(c.ranks, nep, c.seed)
		if err != nil {
			tb.Fatal(err)
		}
		uniform = mp.PatternEndpoints(traffic.Random, c.ranks)
	}
	switch c.kind {
	case saturationCell:
		return cellResult{sat: nw.SaturationLoad(uniform, c.msgs)}
	case motifCell:
		rounds := make([][]simnet.Message, 3)
		for r := range rounds {
			for ep := 0; ep < nep; ep++ {
				rounds[r] = append(rounds[r], simnet.Message{SrcEP: ep, DstEP: (ep + 7 + r) % nep})
			}
		}
		st, err := nw.RunBatches(rounds)
		if err != nil {
			tb.Fatal(err)
		}
		return cellResult{st: st}
	}
	uniform.Tenants = c.tenants
	return cellResult{st: nw.RunLoad(uniform, c.load, c.msgs)}
}

// recycleSettings are the non-default settings the recycle tests
// draw cells from, over g at concentration 2.
type recycleSettings struct {
	dead    []bool
	sched   fault.Schedule
	lats    *simnet.LinkLatencies
	tenants *simnet.TenantConfig
}

func newRecycleSettings(g *graph.Graph) recycleSettings {
	dead := make([]bool, g.N())
	dead[3] = true
	port := make([][]int64, g.N())
	for r := range port {
		for _, w := range g.Neighbors(r) {
			port[r] = append(port[r], 1+(int64(r)+int64(w))%19)
		}
	}
	ofEP := make([]int32, 2*g.N())
	for ep := range ofEP {
		ofEP[ep] = int32(ep % 2)
	}
	return recycleSettings{
		dead: dead,
		sched: fault.Schedule{
			{Cycle: 60, Kill: []int32{0}, Cut: [][2]int32{{1, g.Neighbors(1)[0]}}},
			{Cycle: 200, Revive: []int32{0}},
		},
		lats:    &simnet.LinkLatencies{Port: port, NIC: 7},
		tenants: &simnet.TenantConfig{OfEP: ofEP, Load: []float64{0.3, 0.6}},
	}
}

// namedCell is one cell of a recycle sequence.
type namedCell struct {
	name string
	c    cellSpec
}

// checkRecycledMatchesFresh runs cells in order on one recycled clone
// and each on a fresh clone, and fails on the first cell whose results
// differ or that did not get the recycled clone back.
func checkRecycledMatchesFresh(t *testing.T, g *graph.Graph, cells []namedCell) {
	t.Helper()
	recycled, fresh := New(1), New(1)
	var prev *simnet.Network
	for i, nc := range cells {
		c := nc.c
		nw, err := recycled.Network(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && nw != prev {
			t.Fatalf("cell %d (%s): Network did not hand back the recycled clone", i, nc.name)
		}
		got := runCell(t, nw, c)
		recycled.Recycle(g, 2, nw)
		prev = nw

		fnw, err := fresh.Network(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := runCell(t, fnw, c); !got.equal(want) {
			t.Fatalf("cell %d (%s): recycled clone diverged from a fresh one:\n%+v\n%+v", i, nc.name, got, want)
		}
	}
}

// TestRecycledCloneMatchesFresh: a sequence of cells on one recycled
// clone measures exactly what each cell measures on a fresh clone —
// no setting (schedule, dead mask, latencies, shard count, policy,
// seed), no workload (tenant table included) and no run state carries
// over from one cell to the next, whatever the measure. A 64-rank job
// after a full one, and a full job after it, pin that injection
// cursors left by an earlier sender set never leak into the next run.
func TestRecycledCloneMatchesFresh(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	s := newRecycleSettings(g)
	checkRecycledMatchesFresh(t, g, []namedCell{
		{"tenants", cellSpec{policy: routing.UGALL, seed: 1, tenants: s.tenants, load: 0.3, msgs: 4}},
		{"single tenant", cellSpec{seed: 2, load: 0.3, msgs: 4}},
		{"scheduled", cellSpec{policy: routing.Valiant, seed: 3, sched: s.sched, load: 0.4, msgs: 4}},
		{"static", cellSpec{seed: 3, load: 0.4, msgs: 4}},
		{"dead mask", cellSpec{policy: routing.UGALL, seed: 4, dead: s.dead, load: 0.5, msgs: 4}},
		{"no dead mask", cellSpec{seed: 4, load: 0.5, msgs: 4}},
		{"per-link latencies", cellSpec{seed: 5, lats: s.lats, load: 0.3, msgs: 4}},
		{"uniform latencies", cellSpec{seed: 5, load: 0.3, msgs: 4}},
		{"workers 2", cellSpec{policy: routing.UGALL, seed: 6, workers: 2, load: 0.6, msgs: 4}},
		{"workers 1", cellSpec{seed: 6, load: 0.6, msgs: 4}},
		{"saturation", cellSpec{kind: saturationCell, seed: 7, msgs: 4}},
		{"load", cellSpec{policy: routing.Valiant, seed: 8, load: 0.7, msgs: 6}},
		{"64-rank job after a full one", cellSpec{policy: routing.Valiant, seed: 8, ranks: 64, load: 0.7, msgs: 6}},
		{"full job after a 64-rank one", cellSpec{seed: 9, load: 0.5, msgs: 5}},
		{"64-rank saturation", cellSpec{kind: saturationCell, seed: 10, ranks: 64, msgs: 4}},
		{"motif after load", cellSpec{kind: motifCell, seed: 8}},
	})
}

// FuzzRecycledClone decodes a short cell sequence — four bytes a cell:
// setting flags, policy, seed and load — and checks it measures the
// same on one recycled clone as on fresh clones. Flag 0x80 runs a
// 64-rank job instead of every endpoint, so sequences mix sender sets.
func FuzzRecycledClone(f *testing.F) {
	f.Add([]byte{0x01, 1, 1, 80, 0x00, 0, 2, 80})
	f.Add([]byte{0x02, 2, 3, 120, 0x00, 0, 3, 120, 0x04, 1, 4, 200})
	f.Add([]byte{0x08, 0, 5, 60, 0x10, 1, 6, 150, 0x40, 2, 7, 90, 0x20, 3, 8, 40})
	f.Add([]byte{0x00, 1, 9, 150, 0x80, 1, 9, 150, 0x00, 2, 10, 90, 0xd0, 0, 11, 60})
	g := topo.MustLPS(11, 7).G
	s := newRecycleSettings(g)
	f.Fuzz(func(t *testing.T, data []byte) {
		var cells []namedCell
		for len(data) >= 4 && len(cells) < 4 {
			flags, pol, seed, load := data[0], data[1], data[2], data[3]
			data = data[4:]
			c := cellSpec{
				policy: routing.Policy(int(pol) % 4),
				seed:   int64(seed),
				load:   float64(int(load)%255+1) / 255,
				msgs:   3,
			}
			if flags&0x01 != 0 {
				c.tenants = s.tenants
			}
			if flags&0x02 != 0 {
				c.sched = s.sched
			}
			if flags&0x04 != 0 {
				c.dead = s.dead
			}
			if flags&0x08 != 0 {
				c.lats = s.lats
			}
			if flags&0x10 != 0 {
				c.workers = 2
			}
			if flags&0x80 != 0 {
				c.ranks = 64
			}
			switch {
			case flags&0x20 != 0 && c.sched == nil:
				c.kind = motifCell
			case flags&0x40 != 0 && c.tenants == nil:
				c.kind, c.msgs = saturationCell, 2
			}
			cells = append(cells, namedCell{"decoded", c})
		}
		checkRecycledMatchesFresh(t, g, cells)
	})
}

// TestRecycleGate: a clone whose last run used more than
// recycleMaxBytes is not kept, so the next Network call clones afresh.
func TestRecycleGate(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	r := New(1)
	const conc = 80 // 13,440 endpoints: the injection cursors alone pass the gate
	nw, err := r.Network(g, conc)
	if err != nil {
		t.Fatal(err)
	}
	st := runCell(t, nw, cellSpec{load: 0.1, msgs: 1})
	if st.st.MemoryBytes <= recycleMaxBytes {
		t.Fatalf("run used %d bytes, want a run over the %d-byte gate", st.st.MemoryBytes, recycleMaxBytes)
	}
	r.Recycle(g, conc, nw)
	if len(r.idle) != 0 {
		t.Fatal("Recycle kept a clone over the gate")
	}
	if again, _ := r.Network(g, conc); again == nw {
		t.Fatal("Network handed back a clone over the gate")
	}
}

// TestRecycleIdleList: idle clones go back only to their own (graph,
// concentration), the idle list holds at most the pool size and drops
// the oldest first, and Release drops a graph's idle clones.
func TestRecycleIdleList(t *testing.T) {
	lps, sf := topo.MustLPS(11, 7).G, topo.MustSlimFly(9).G
	r := New(2)
	clone := func(g *graph.Graph, conc int) *simnet.Network {
		t.Helper()
		nw, err := r.Network(g, conc)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	a, b, c := clone(lps, 2), clone(lps, 2), clone(sf, 2)
	for _, nw := range []*simnet.Network{a, b, c} {
		runCell(t, nw, cellSpec{load: 0.3, msgs: 2})
	}
	r.Recycle(lps, 2, a)
	r.Recycle(lps, 2, b)
	r.Recycle(sf, 2, c) // the list is full: a, the oldest, goes
	if len(r.idle) != 2 {
		t.Fatalf("%d idle clones, want the pool size 2", len(r.idle))
	}
	if got := clone(lps, 3); got == a || got == b {
		t.Fatal("a clone of concentration 2 was handed out for concentration 3")
	}
	if got := clone(lps, 2); got != b {
		t.Fatal("Network did not hand back the idle clone of (lps, 2)")
	}
	if got := clone(lps, 2); got == a {
		t.Fatal("the oldest idle clone outlived a full list")
	}
	r.Release(sf)
	if len(r.idle) != 0 {
		t.Fatalf("Release left %d idle clones", len(r.idle))
	}
	if got := clone(sf, 2); got == c {
		t.Fatal("Network handed back a released graph's idle clone")
	}
}

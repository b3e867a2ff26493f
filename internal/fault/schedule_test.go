package fault

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Build()
}

func TestChurnScheduleDeterministicAndValid(t *testing.T) {
	g := ringGraph(32)
	for _, kind := range []Kind{Links, Routers, Regions} {
		spec := ChurnSpec{Kind: kind, Fraction: 0.25, RegionSize: 4, Period: 100, Outage: 40, Repeats: 3, Seed: 7}
		a, err := spec.Schedule(g)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := spec.Schedule(g)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: churn schedule is not a pure value of its spec", kind)
		}
		if err := a.Validate(g); err != nil {
			t.Fatalf("%s: constructor produced invalid schedule: %v", kind, err)
		}
		if len(a) != 6 {
			t.Fatalf("%s: want 3 onset+restore pairs, got %d changes", kind, len(a))
		}
		for k := 0; k < 3; k++ {
			on, off := a[2*k], a[2*k+1]
			if on.Cycle != int64(k+1)*100 || off.Cycle != on.Cycle+40 {
				t.Fatalf("%s: onset %d at cycles (%d,%d), want (%d,%d)",
					kind, k, on.Cycle, off.Cycle, (k+1)*100, (k+1)*100+40)
			}
			if !reflect.DeepEqual(on.Cut, off.Restore) || !reflect.DeepEqual(on.Kill, off.Revive) {
				t.Fatalf("%s: onset %d does not restore exactly what it cut", kind, k)
			}
			if kind != Links && len(on.Kill) == 0 {
				t.Fatalf("%s: onset %d killed no routers at fraction 0.25", kind, k)
			}
		}
		// Distinct onsets must sample distinct damage (derived seeds).
		if reflect.DeepEqual(a[0].Cut, a[2].Cut) {
			t.Fatalf("%s: consecutive onsets sampled identical damage", kind)
		}
	}
}

func TestChurnSpecRejectsBadTiming(t *testing.T) {
	g := ringGraph(8)
	for _, spec := range []ChurnSpec{
		{Kind: Links, Fraction: 0.1, Period: 0, Outage: 1},
		{Kind: Links, Fraction: 0.1, Period: 10, Outage: 0},
		{Kind: Links, Fraction: 0.1, Period: 10, Outage: 10},
		{Kind: Links, Fraction: 1.5, Period: 10, Outage: 5},
		{Kind: Links, Fraction: math.NaN(), Period: 10, Outage: 5},
	} {
		if _, err := spec.Schedule(g); err == nil {
			t.Errorf("spec %+v: want error, got nil", spec)
		}
	}
}

// TestRewiringStepsReproduceConfigs applies the schedule's deltas to
// the union edge set and checks the live set equals the active config
// after every step.
func TestRewiringStepsReproduceConfigs(t *testing.T) {
	configs := [][][2]int32{
		{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
		{{0, 2}, {1, 3}, {1, 2}},          // shares 1-2 with config 0
		{{3, 0}, {0, 1}, {2, 3}, {13, 4}}, // reversed orientation on purpose: {13,4} normalizes to {4,13}
	}
	s, err := Rewiring(configs, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[[2]int32]bool)
	for _, cfg := range configs {
		for _, e := range cfg {
			u, v := e[0], e[1]
			if u > v {
				u, v = v, u
			}
			live[[2]int32{u, v}] = true
		}
	}
	norm := func(e [2]int32) [2]int32 {
		if e[0] > e[1] {
			return [2]int32{e[1], e[0]}
		}
		return e
	}
	check := func(step int, cfg [][2]int32) {
		want := make(map[[2]int32]bool)
		for _, e := range cfg {
			want[norm(e)] = true
		}
		up := make(map[[2]int32]bool)
		for e, on := range live {
			if on {
				up[e] = true
			}
		}
		if !reflect.DeepEqual(up, want) {
			t.Fatalf("after step %d live set %v, want %v", step, up, want)
		}
	}
	si := 0
	applyAt := func(cycle int64) {
		for si < len(s) && s[si].Cycle == cycle {
			for _, e := range s[si].Cut {
				if !live[e] {
					t.Fatalf("cycle %d cuts already-down edge %v", cycle, e)
				}
				live[e] = false
			}
			for _, e := range s[si].Restore {
				if live[e] {
					t.Fatalf("cycle %d restores already-up edge %v", cycle, e)
				}
				live[e] = true
			}
			si++
		}
	}
	applyAt(0)
	check(0, configs[0])
	for k := 1; k <= 5; k++ {
		applyAt(int64(k) * 50)
		check(k, configs[k%len(configs)])
	}
	if si != len(s) {
		t.Fatalf("schedule has %d changes, applied %d", len(s), si)
	}

	// Determinism: map iteration inside Rewiring must not leak.
	again, err := Rewiring(configs, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatal("rewiring schedule is not a pure value of its inputs")
	}
}

func TestScheduleValidate(t *testing.T) {
	g := ringGraph(6)
	ok := Schedule{
		{Cycle: 10, Cut: [][2]int32{{0, 1}}, Kill: []int32{3}},
		{Cycle: 20, Restore: [][2]int32{{0, 1}}, Revive: []int32{3}},
	}
	if err := ok.Validate(g); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	for name, bad := range map[string]Schedule{
		"negative cycle":    {{Cycle: -1}},
		"unsorted":          {{Cycle: 20}, {Cycle: 10}},
		"cut non-edge":      {{Cycle: 1, Cut: [][2]int32{{0, 3}}}},
		"restore non-edge":  {{Cycle: 1, Restore: [][2]int32{{2, 5}}}},
		"kill out of range": {{Cycle: 1, Kill: []int32{6}}},
		"revive negative":   {{Cycle: 1, Revive: []int32{-1}}},
	} {
		if err := bad.Validate(g); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

func TestEdgeCursorWalksScheduleInOrder(t *testing.T) {
	s := Schedule{
		{Cycle: 10, Kill: []int32{0}},
		{Cycle: 10, Kill: []int32{1}}, // same cycle: both due together
		{Cycle: 40, Revive: []int32{0, 1}},
	}
	c := s.Cursor()

	// Nothing is due before the first change's cycle, but Peek exposes
	// it so an engine can clip its lookahead window to the edge.
	if _, ok := c.Due(9); ok {
		t.Fatal("change due before its cycle")
	}
	if cyc, ok := c.Peek(); !ok || cyc != 10 {
		t.Fatalf("Peek() = (%d, %v), want (10, true)", cyc, ok)
	}

	// At cycle 10 both same-cycle changes drain, in schedule order.
	for want := 0; want < 2; want++ {
		ci, ok := c.Due(10)
		if !ok || ci != want {
			t.Fatalf("Due(10) = (%d, %v), want (%d, true)", ci, ok, want)
		}
	}
	if _, ok := c.Due(10); ok {
		t.Fatal("cycle-10 changes drained twice")
	}
	if cyc, ok := c.Peek(); !ok || cyc != 40 {
		t.Fatalf("after cycle 10, Peek() = (%d, %v), want (40, true)", cyc, ok)
	}

	// A large now drains the tail; the exhausted cursor yields nothing.
	if ci, ok := c.Due(1 << 40); !ok || ci != 2 {
		t.Fatalf("tail drain = (%d, %v), want (2, true)", ci, ok)
	}
	if _, ok := c.Due(1 << 40); ok {
		t.Fatal("exhausted cursor returned a change")
	}
	if _, ok := c.Peek(); ok {
		t.Fatal("exhausted cursor peeked a change")
	}
}

func TestEdgeCursorEmptySchedule(t *testing.T) {
	for _, s := range []Schedule{nil, {}} {
		c := s.Cursor()
		if _, ok := c.Peek(); ok {
			t.Fatal("empty schedule peeked a change")
		}
		if _, ok := c.Due(0); ok {
			t.Fatal("empty schedule yielded a change")
		}
	}
}

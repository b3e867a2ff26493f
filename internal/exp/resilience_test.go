package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

var resilienceTestOpts = Options{
	Fractions:   []float64{0.1},
	Loads:       []float64{0.3},
	Trials:      2,
	Ranks:       64,
	MsgsPerRank: 3,
}

// TestResilienceParallelMatchesSerial is the sweep's acceptance check:
// the grid must be bit-identical between the serial engine and the
// worker pool, including the fault-plan sampling and the incremental
// table repairs.
func TestResilienceParallelMatchesSerial(t *testing.T) {
	mk := func(parallel int) []ResiliencePoint {
		opts := resilienceTestOpts
		opts.Parallel = parallel
		points, err := Resilience(Quick, opts)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	serial := mk(1)
	parallel := mk(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("resilience sweep diverged between worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	// 4 instances × (baseline + 3 kinds) × 2 policies × 1 load.
	if want := 4 * 4 * 2; len(serial) != want {
		t.Fatalf("points %d want %d", len(serial), want)
	}
}

func TestResilienceDegradesSensibly(t *testing.T) {
	points, err := Resilience(Quick, resilienceTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		topo, fault, policy string
		load                float64
	}
	byKey := map[cell]ResiliencePoint{}
	for _, p := range points {
		byKey[cell{p.Topology, p.Fault, p.Policy, p.Load}] = p
	}
	for _, p := range points {
		if p.Fault == "none" {
			if p.Delivered != 1 {
				t.Errorf("%s baseline dropped traffic: delivered %.4f", p.Topology, p.Delivered)
			}
			continue
		}
		base, ok := byKey[cell{p.Topology, "none", p.Policy, p.Load}]
		if !ok {
			t.Fatalf("no baseline row for %s", p.Topology)
		}
		// Delivery can only get worse under damage, and router kills must
		// visibly lose the orphaned endpoints' traffic.
		if p.Delivered > base.Delivered+1e-12 {
			t.Errorf("%s/%s delivered %.4f above baseline %.4f", p.Topology, p.Fault, p.Delivered, base.Delivered)
		}
		if p.Fault == fault.Routers.String() && p.Delivered > 0.99 {
			t.Errorf("%s router kills lost no traffic (delivered %.4f)", p.Topology, p.Delivered)
		}
		if p.Trials != resilienceTestOpts.Trials {
			t.Errorf("%s/%s has %d trials, want %d", p.Topology, p.Fault, p.Trials, resilienceTestOpts.Trials)
		}
	}
	var buf bytes.Buffer
	FprintResilience(&buf, points)
	if buf.Len() == 0 {
		t.Error("no rendered output")
	}
}

// TestResilienceRejectsNegativeTrials: zero trials selects the scale
// default, but a negative count is an error, not a silent single plan.
func TestResilienceRejectsNegativeTrials(t *testing.T) {
	opts := resilienceTestOpts
	opts.Trials = -2
	if _, err := Resilience(Quick, opts); err == nil || !strings.Contains(err.Error(), "trials -2") {
		t.Fatalf("negative trials: err %v, want a trials error", err)
	}
}

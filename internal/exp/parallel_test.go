package exp

import (
	"reflect"
	"testing"
)

// TestFig6ParallelMatchesSerial is the engine's acceptance check: the
// same Fig6 sweep through the serial engine (Parallel=1) and the
// worker pool (Parallel=8) must produce byte-identical LoadPoint
// slices.
func TestFig6ParallelMatchesSerial(t *testing.T) {
	mk := func(parallel int) []LoadPoint {
		points, err := Fig6(Quick, Options{
			Ranks:       128,
			MsgsPerRank: 4,
			Loads:       []float64{0.2, 0.4},
			Parallel:    parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	serial := mk(1)
	parallel := mk(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(serial) != 4*4*2 {
		t.Fatalf("points %d want 32", len(serial))
	}
}

// TestFig8ParallelMatchesSerial covers the two-policy reducer the same
// way, and TestRunMotifsParallelMatchesSerial the motif path.
func TestFig8ParallelMatchesSerial(t *testing.T) {
	mk := func(parallel int) []LoadPoint {
		points, err := Fig8(Quick, Options{
			Ranks: 128, MsgsPerRank: 4, Loads: []float64{0.5}, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	if a, b := mk(1), mk(6); !reflect.DeepEqual(a, b) {
		t.Fatalf("fig8 parallel diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunMotifsParallelMatchesSerial(t *testing.T) {
	mk := func(parallel int) []MotifPoint {
		points, err := Fig9(Quick, Options{Seed: 7, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	if a, b := mk(1), mk(6); !reflect.DeepEqual(a, b) {
		t.Fatalf("motif parallel diverged:\n%+v\n%+v", a, b)
	}
}

// TestMotifLatencyReported guards the RunBatches aggregation fold at
// the experiment level: motif points must carry nonzero latency stats.
func TestMotifLatencyReported(t *testing.T) {
	points, err := Fig9(Quick, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.MeanLat <= 0 || p.P99Lat <= 0 {
			t.Errorf("%s/%s: latency stats missing (mean=%v p99=%v)", p.Topology, p.Motif, p.MeanLat, p.P99Lat)
		}
	}
}

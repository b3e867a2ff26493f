package topo

import "testing"

// TestTableIIScaleSpecsBuild validates the large-n ladder: every rung
// constructs, is regular, and the LPS/SF pair sizes are matched within
// the same order of magnitude (the property §VII's comparison relies
// on). The last rung must reach ~40K routers — the size class whose
// dense routing table (~6.3 GB) motivated the packed oracle.
func TestTableIIScaleSpecsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds multi-million-edge instances")
	}
	prev := 0
	for i, pair := range TableIIScaleSpecs {
		ns := [2]int{}
		for j, spec := range pair {
			inst, err := spec.Build()
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			n := inst.G.N()
			ns[j] = n
			if _, ok := inst.G.Regularity(); !ok {
				t.Errorf("%s is not regular", spec)
			}
			t.Logf("%s: n=%d m=%d", spec, n, inst.G.M())
		}
		if ns[0] < 10000 {
			t.Errorf("rung %d LPS has %d routers; the ladder starts at ~12K", i, ns[0])
		}
		if ratio := float64(ns[0]) / float64(ns[1]); ratio < 0.5 || ratio > 2 {
			t.Errorf("rung %d pair sizes %d vs %d are not comparable", i, ns[0], ns[1])
		}
		if ns[0] < prev {
			t.Errorf("rung %d is smaller than rung %d; the ladder must ascend", i, i-1)
		}
		prev = ns[0]
	}
	if prev < 35000 {
		t.Errorf("largest rung has %d routers, want ~40K", prev)
	}
}

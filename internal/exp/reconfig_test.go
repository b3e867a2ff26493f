package exp

import (
	"bytes"
	"reflect"
	"testing"
)

var reconfigTestOpts = Options{
	Ranks:       64,
	MsgsPerRank: 3,
}

// TestReconfigParallelMatchesSerial pins the exhibit's determinism
// contract: schedules are pure values and every cell seed derives from
// a stable key, so the report is bit-identical across worker counts.
func TestReconfigParallelMatchesSerial(t *testing.T) {
	mk := func(parallel int) *ReconfigReport {
		opts := reconfigTestOpts
		opts.Parallel = parallel
		rep, err := Reconfig(Quick, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := mk(1)
	parallel := mk(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("reconfig exhibit diverged between worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestReconfigReportShape(t *testing.T) {
	rep, err := Reconfig(Quick, reconfigTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Configs); got != 3 {
		t.Fatalf("quick scale samples %d configurations, want 3", got)
	}
	for _, c := range rep.Configs {
		// Jellyfish configs are 4-regular on 64 routers: 128 links, and
		// λ₂ strictly below the trivial eigenvalue k.
		if c.Edges != 128 {
			t.Errorf("config %d has %d links, want 128", c.Index, c.Edges)
		}
		if c.Lambda2 <= 0 || c.Lambda2 >= 4 {
			t.Errorf("config %d λ₂ = %v out of (0, k)", c.Index, c.Lambda2)
		}
	}
	if rep.UnionLambda2 <= 0 {
		t.Errorf("union λ₂ = %v, want positive", rep.UnionLambda2)
	}
	// Both fabric legs × both default policies × one quick load.
	if got := len(rep.Points); got != 4 {
		t.Fatalf("got %d points, want 4", got)
	}
	wantFabric := []string{"static", "static", "rewiring", "rewiring"}
	for i, p := range rep.Points {
		if p.Fabric != wantFabric[i] {
			t.Errorf("point %d fabric %q, want %q", i, p.Fabric, wantFabric[i])
		}
		if p.Delivered <= 0 {
			t.Errorf("point %d delivered nothing", i)
		}
	}
	var buf bytes.Buffer
	FprintReconfig(&buf, rep)
	if buf.Len() == 0 {
		t.Fatal("FprintReconfig wrote nothing")
	}
}

package exp

import (
	"strings"
	"testing"

	"repro/internal/routing"
)

func TestScaleSweepQuick(t *testing.T) {
	points, err := ScaleSweep(Quick, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	for _, p := range points {
		if p.Store != "packed" {
			t.Errorf("%s: store %q, want packed", p.Topology, p.Store)
		}
		if p.Saturation <= 0 || p.Saturation > 1 {
			t.Errorf("%s: saturation %v out of (0,1]", p.Topology, p.Saturation)
		}
		if p.DegradedDelivered <= 0 || p.DegradedDelivered > 1 {
			t.Errorf("%s: degraded delivered %v out of (0,1]", p.Topology, p.DegradedDelivered)
		}
		if p.PeakTableBytes <= 0 {
			t.Errorf("%s: peak table bytes %d not accounted", p.Topology, p.PeakTableBytes)
		}
		if p.Routers <= 0 || p.Endpoints != p.Routers {
			t.Errorf("%s: routers %d endpoints %d inconsistent at concentration 1",
				p.Topology, p.Routers, p.Endpoints)
		}
	}
	var sb strings.Builder
	FprintScale(&sb, points)
	if !strings.Contains(sb.String(), "PeakTableMB") || !strings.Contains(sb.String(), points[0].Topology) {
		t.Errorf("rendered table missing expected content:\n%s", sb.String())
	}
}

// TestScaleSweepStoresBitIdentical is the driver-level equivalence
// oracle: the scale sweep's two phases on one shared engine (the
// degraded grid repairs the saturation grid's memoized table) must
// produce identical saturation knees and degraded-point statistics on
// dense and lazy tables as on the packed ones ScaleSweep pins — only
// the reported footprint may differ, and packed must peak at under a
// quarter of the 32-bit row cost of the tables dense holds at its
// peak. Those tables (the intact table and its repair) have nibble
// rows, n·⌈n/2⌉ + n·⌈n/4⌉ bytes each, against n²·4 + n·⌈n/4⌉ in 32-bit
// rows.
func TestScaleSweepStoresBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep three times")
	}
	base, err := ScaleSweep(Quick, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []routing.Store{routing.StoreDense, routing.StoreLazy} {
		got, err := scaleSweep(Quick, Options{Parallel: 1}, store)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("[%s] %d points, packed has %d", store, len(got), len(base))
		}
		for i := range got {
			g, b := got[i], base[i]
			if g.Store != store.String() {
				t.Errorf("[%s] %s reports store %q", store, g.Topology, g.Store)
			}
			if g.Saturation != b.Saturation {
				t.Errorf("[%s] %s saturation %v, packed %v", store, g.Topology, g.Saturation, b.Saturation)
			}
			if g.DegradedDelivered != b.DegradedDelivered || g.DegradedP99 != b.DegradedP99 {
				t.Errorf("[%s] %s degraded point (%v, %v), packed (%v, %v)", store,
					g.Topology, g.DegradedDelivered, g.DegradedP99, b.DegradedDelivered, b.DegradedP99)
			}
		}
		if store == routing.StoreDense {
			n := int64(got[0].Routers)
			wide := got[0].PeakTableBytes * (n*n*4 + n*((n+3)/4)) / (n*((n+1)/2) + n*((n+3)/4))
			if base[0].PeakTableBytes*4 > wide {
				t.Errorf("packed peak %d bytes not well below the 32-bit row cost %d (dense %d)",
					base[0].PeakTableBytes, wide, got[0].PeakTableBytes)
			}
		}
	}
}

// TestScaleSweepFractionChecks: the degraded point takes one positive
// link-failure fraction; zero, negative and several are errors before
// any cell runs.
func TestScaleSweepFractionChecks(t *testing.T) {
	for _, tc := range []struct {
		fractions []float64
		want      string
	}{
		{[]float64{0}, "fraction > 0"},
		{[]float64{-0.1}, "fraction > 0"},
		{[]float64{0.01, 0.02}, "single fraction, got 2"},
	} {
		_, err := ScaleSweep(Quick, Options{Fractions: tc.fractions})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("fractions %v: err %v, want %q", tc.fractions, err, tc.want)
		}
	}
}

package exp

import (
	"math"
	"os"
	"testing"

	"repro/internal/topo"
)

// table1Discrepancies lists the Table I rows whose measured µ1 misses
// the paper's value by more than the tolerance, pinned at the measured
// value so a drift on either side still fails. Each is an open
// discrepancy (EXPERIMENTS.md, Table I), not a tolerance.
var table1Discrepancies = map[string]float64{
	// The paper prints 0.65; the spectrum here gives 0.658494, which
	// equals 1 − (3+3√3)/24 to nine digits and rounds to 0.66. Only
	// truncation would print 0.65, and the paper rounds elsewhere (this
	// row's average distance 2.3475 prints as 2.35).
	"LPS(23,11)": 0.6585,
}

// TestTable1FullMatchesPaper checks all 20 rows of Table I at Full
// scale against the paper: routers, radix, diameter and girth exactly,
// average distance and µ1 within 0.005 (the paper prints two
// decimals). It takes about 12 s on 2 vCPUs, so it runs in the nightly
// large-smoke job under SPECTRALFLY_LARGE_BENCH=1; class 0 is checked
// on every run by TestTable1QuickMatchesPaper.
func TestTable1FullMatchesPaper(t *testing.T) {
	if os.Getenv("SPECTRALFLY_LARGE_BENCH") == "" {
		t.Skip("set SPECTRALFLY_LARGE_BENCH=1 to check every Table I row")
	}
	const tol = 0.005
	rows, err := Table1(Full, Options{Classes: []int{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("%d rows, want 20", len(rows))
	}
	for i, row := range rows {
		want := topo.TableIPaperValues[i/4][i%4]
		if row.Name != want.Name || row.Routers != want.Routers || row.Radix != want.Radix {
			t.Errorf("row %d is %s (%d routers, radix %d), paper %s (%d, %d)",
				i, row.Name, row.Routers, row.Radix, want.Name, want.Routers, want.Radix)
			continue
		}
		if row.Diameter != want.Diameter {
			t.Errorf("%s diameter %d, paper %d", row.Name, row.Diameter, want.Diameter)
		}
		if row.Girth != want.Girth {
			t.Errorf("%s girth %d, paper %d", row.Name, row.Girth, want.Girth)
		}
		if math.Abs(row.Dist-want.Dist) > tol {
			t.Errorf("%s average distance %.4f, paper %.2f", row.Name, row.Dist, want.Dist)
		}
		mu1 := want.Mu1
		if measured, ok := table1Discrepancies[row.Name]; ok {
			if math.Abs(row.Mu1-mu1) <= tol {
				t.Errorf("%s µ1 %.4f now matches the paper's %.2f: drop its discrepancy entry", row.Name, row.Mu1, mu1)
			}
			mu1 = measured
		}
		if math.Abs(row.Mu1-mu1) > tol {
			t.Errorf("%s µ1 %.4f, want %.4f (paper %.2f)", row.Name, row.Mu1, mu1, want.Mu1)
		}
	}
}

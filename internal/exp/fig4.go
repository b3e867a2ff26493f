package exp

import (
	"io"
	"sort"

	"repro/internal/partition"
	"repro/internal/spectral"
	"repro/internal/topo"
)

// Fig4Feasible reproduces Figure 4 (upper left): all feasible LPS
// (radix, vertex-count) points for p, q < maxPQ (the paper uses 300).
func Fig4Feasible(maxPQ int64) []topo.Feasible {
	return topo.LPSFeasible(maxPQ)
}

// Fig4SizesPerRadix reproduces Figure 4 (lower left): feasible
// (radix, size) points per topology family. The BundleFly series
// reports the maximum vertex count per radix (the paper's green
// points).
type Fig4Sizes struct {
	LPS, SlimFly, DragonFly []topo.Feasible
	BundleFlyMax            []topo.Feasible
}

// Fig4FeasibleSizes enumerates the families up to the given limits.
func Fig4FeasibleSizes(maxPQ, maxQ int64, maxA int, maxBFP, maxBFS int64) Fig4Sizes {
	out := Fig4Sizes{
		LPS:       topo.LPSFeasible(maxPQ),
		SlimFly:   topo.SlimFlyFeasible(maxQ),
		DragonFly: topo.DragonFlyFeasible(maxA),
	}
	maxPerRadix := map[int]topo.Feasible{}
	for _, f := range topo.BundleFlyFeasible(maxBFP, maxBFS) {
		if cur, ok := maxPerRadix[f.Radix]; !ok || f.Vertices > cur.Vertices {
			maxPerRadix[f.Radix] = f
		}
	}
	for _, f := range maxPerRadix {
		out.BundleFlyMax = append(out.BundleFlyMax, f)
	}
	sort.Slice(out.BundleFlyMax, func(i, j int) bool {
		return out.BundleFlyMax[i].Radix < out.BundleFlyMax[j].Radix
	})
	return out
}

// BisectionRow is one point of the bisection-bandwidth plots (Figure 4
// upper right and lower right).
type BisectionRow struct {
	Name       string
	Vertices   int
	Radix      int
	CutUpper   int     // partitioner result (METIS-substitute upper bound)
	CutLower   float64 // Fiedler spectral lower bound µ1·k·n/4
	Normalized float64 // CutUpper / links (nk/2 on a k-regular graph); 0 with no links
}

func bisectionRow(inst *topo.Instance, seed int64) BisectionRow {
	g := inst.G
	k, _ := g.Regularity()
	cut := partition.BisectionBandwidth(g, partition.Options{Seed: seed})
	row := BisectionRow{
		Name:     inst.Name,
		Vertices: g.N(),
		Radix:    k,
		CutUpper: cut,
		CutLower: spectral.FiedlerBisectionLowerBound(g, seed),
	}
	if g.M() > 0 {
		row.Normalized = float64(cut) / float64(g.M())
	}
	return row
}

// Fig4NormalizedBisection reproduces Figure 4 (upper right): the
// normalized bisection bandwidth of LPS instances with p, q < maxPQ and
// at most maxVertices vertices (the paper sweeps p, q < 100; the
// vertex cap keeps the partitioner tractable — uncapped instances
// reach beyond 10^5 vertices).
func Fig4NormalizedBisection(maxPQ int64, maxVertices int) ([]BisectionRow, error) {
	var rows []BisectionRow
	for _, f := range topo.LPSFeasible(maxPQ) {
		if f.Vertices > int64(maxVertices) {
			continue
		}
		spec, err := topo.ParseSpec(f.Name)
		if err != nil {
			return nil, err
		}
		inst, err := spec.Build()
		if err != nil {
			return nil, err
		}
		rows = append(rows, bisectionRow(inst, BaseSeed))
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Radix != rows[j].Radix {
			return rows[i].Radix < rows[j].Radix
		}
		return rows[i].Vertices < rows[j].Vertices
	})
	return rows, nil
}

// Fig4RawBisection reproduces Figure 4 (lower right): raw bisection
// bandwidth (upper/lower bracket) for the Table I instances of the
// requested classes (see classSpecs).
func Fig4RawBisection(classes []int, scale Scale) ([]BisectionRow, error) {
	specs, err := classSpecs(classes, scale)
	if err != nil {
		return nil, err
	}
	var rows []BisectionRow
	for _, spec := range specs {
		inst, err := spec.Build()
		if err != nil {
			return nil, err
		}
		rows = append(rows, bisectionRow(inst, BaseSeed))
	}
	return rows, nil
}

// FprintBisection renders bisection rows.
func FprintBisection(w io.Writer, rows []BisectionRow) {
	fprintf(w, "%-14s %9s %6s %10s %12s %11s\n",
		"Topology", "Vertices", "Radix", "Cut(upper)", "Fiedler(low)", "Normalized")
	for _, r := range rows {
		fprintf(w, "%-14s %9d %6d %10d %12.1f %11.3f\n",
			r.Name, r.Vertices, r.Radix, r.CutUpper, r.CutLower, r.Normalized)
	}
}

// FprintFeasible renders feasibility points.
func FprintFeasible(w io.Writer, points []topo.Feasible) {
	fprintf(w, "%-16s %6s %10s\n", "Instance", "Radix", "Vertices")
	for _, f := range points {
		fprintf(w, "%-16s %6d %10d\n", f.Name, f.Radix, f.Vertices)
	}
}

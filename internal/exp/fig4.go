package exp

import (
	"io"
	"sort"

	"repro/internal/partition"
	"repro/internal/spectral"
	"repro/internal/topo"
)

// Fig4Feasible reproduces Figure 4 (upper left): all feasible LPS
// (radix, vertex-count) points for p, q < MaxPQ (100 quick; 300 full,
// as in the paper). It reads MaxPQ.
func Fig4Feasible(scale Scale, opts Options) ([]topo.Feasible, error) {
	opts = opts.withDefaults(scale, Options{MaxPQ: 100}, Options{MaxPQ: 300})
	return topo.LPSFeasible(opts.MaxPQ), nil
}

// Fig4SizesPerRadix reproduces Figure 4 (lower left): feasible
// (radix, size) points per topology family. The BundleFly series
// reports the maximum vertex count per radix (the paper's green
// points).
type Fig4Sizes struct {
	LPS, SlimFly, DragonFly []topo.Feasible
	BundleFlyMax            []topo.Feasible
}

// Fig4FeasibleSizes enumerates the families up to fixed per-scale
// limits: LPS p, q < 60 (quick; 300 full), SlimFly q < 60 (300),
// DragonFly a < 60 (120) and BundleFly p < 60, s < 12 (200, 16). It
// reads no Options field.
func Fig4FeasibleSizes(scale Scale, _ Options) (Fig4Sizes, error) {
	maxPQ, maxQ, maxA, maxBFP, maxBFS := int64(60), int64(60), 60, int64(60), int64(12)
	if scale == Full {
		maxPQ, maxQ, maxA, maxBFP, maxBFS = 300, 300, 120, 200, 16
	}
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
	return out, nil
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
// normalized bisection bandwidth of LPS instances with p, q < MaxPQ (30
// quick; 100 full, as in the paper) and at most MaxN vertices (4000;
// the vertex cap keeps the partitioner tractable — uncapped instances
// reach beyond 10^5 vertices). It reads MaxPQ and MaxN.
func Fig4NormalizedBisection(scale Scale, opts Options) ([]BisectionRow, error) {
	opts = opts.withDefaults(scale, Options{MaxPQ: 30, MaxN: 4000}, Options{MaxPQ: 100, MaxN: 4000})
	var rows []BisectionRow
	for _, f := range topo.LPSFeasible(opts.MaxPQ) {
		if f.Vertices > int64(opts.MaxN) {
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
		rows = append(rows, bisectionRow(inst, opts.Seed))
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
// bandwidth (upper/lower bracket) for Table I instances. It reads
// Classes (0-1 quick, all five full).
func Fig4RawBisection(scale Scale, opts Options) ([]BisectionRow, error) {
	opts = opts.withDefaults(scale, tableIQuick, tableIFull)
	specs, err := classSpecs(opts.Classes)
	if err != nil {
		return nil, err
	}
	var rows []BisectionRow
	for _, spec := range specs {
		inst, err := spec.Build()
		if err != nil {
			return nil, err
		}
		rows = append(rows, bisectionRow(inst, opts.Seed))
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

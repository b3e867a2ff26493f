package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// SimInstances builds the §VI-B topology set. Full scale matches the
// paper's "~8.7K network endpoints": LPS(23,13)+c8 (8736 EP), SF(27)+c6
// (8748 EP), BF(9,9)+c6 (8748 EP), DF(a=16,h=8,g=69)+p8 (8832 EP).
// (§VI-B's text says 8 endpoints per SlimFly router, but 1458·8 ≈ 11.7K
// contradicts the stated ~8.7K total; concentration 6 reconciles the
// two and keeps the endpoint counts comparable.) Quick scale uses the
// same families at class-1 size.
func SimInstances(scale Scale) ([]sweep.Instance, error) {
	specs := []instanceSpec{
		{topo.Spec{Kind: "lps", Args: []int64{11, 7}}, 4},
		{topo.Spec{Kind: "sf", Args: []int64{9}}, 4},
		{topo.Spec{Kind: "bf", Args: []int64{13, 3}}, 3},
		{topo.Spec{Kind: "dfc", Args: []int64{8, 4, 33}}, 4},
	}
	if scale == Full {
		specs = []instanceSpec{
			{topo.Spec{Kind: "lps", Args: []int64{23, 13}}, 8},
			{topo.Spec{Kind: "sf", Args: []int64{27}}, 6},
			{topo.Spec{Kind: "bf", Args: []int64{9, 9}}, 6},
			{topo.Spec{Kind: "dfc", Args: []int64{16, 8, 69}}, 8},
		}
	}
	return buildInstances(specs)
}

// instanceSpec is one topology of an exhibit's instance set: its spec
// and endpoint concentration.
type instanceSpec struct {
	spec topo.Spec
	conc int
}

// buildInstances constructs specs, in order, as sweep instances.
func buildInstances(specs []instanceSpec) ([]sweep.Instance, error) {
	out := make([]sweep.Instance, 0, len(specs))
	for _, s := range specs {
		inst, err := s.spec.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, sweep.Instance{Name: inst.Name, Inst: inst, Concentration: s.conc})
	}
	return out, nil
}

// paperLoads is §VI-C's offered-load axis.
var paperLoads = []float64{0.1, 0.2, 0.3, 0.5, 0.6, 0.7}

// The §VI-C job of the Fig 6-8 load sweeps and the saturation search.
var (
	paperQuick = Options{Ranks: 512, MsgsPerRank: 25, Loads: paperLoads}
	paperFull  = Options{Ranks: 8192, MsgsPerRank: 30, Loads: paperLoads}
)

// LoadPoint is one simulated (topology, pattern, load) measurement.
type LoadPoint struct {
	Topology   string
	Pattern    traffic.Pattern
	Load       float64
	MaxLatency int64
	MeanLat    float64
	Speedup    float64 // vs the DragonFly baseline at the same point
}

// loadCellKey is the historical open-loop point identity: the
// simulation seed derives from it, so parallel and serial execution
// produce identical results. %v keeps the full float precision so
// distinct loads can never collide to one key (and thus one derived
// seed).
func loadCellKey(c *sweep.Cell) string {
	return fmt.Sprintf("load/%s/%s/%s/%v", c.Topology, c.Policy, c.Pattern, c.Load)
}

// Fig6 reproduces the UGAL-L congestion sweep: for each synthetic
// pattern and offered load, every topology's max message time relative
// to DragonFly-UGAL (speedup > 1 favors the topology). It reads Ranks
// (512 quick, 8192 full), MsgsPerRank (25, 30), Loads (§VI-C's six),
// Seed, Parallel and Workers.
func Fig6(scale Scale, opts Options) ([]LoadPoint, error) {
	return loadSweep(scale, opts, routing.UGALL, traffic.SyntheticPatterns)
}

// Fig7 reproduces the minimal-routing sweep with the random pattern,
// reporting speedup relative to DragonFly-Min. It reads the fields
// Fig6 reads, with the same defaults.
func Fig7(scale Scale, opts Options) ([]LoadPoint, error) {
	return loadSweep(scale, opts, routing.Minimal, []traffic.Pattern{traffic.Random})
}

// loadSweep declares the (topology × pattern × load) grid on the sweep
// core and reduces it against the DragonFly baseline.
func loadSweep(scale Scale, opts Options, pol routing.Policy, pats []traffic.Pattern) ([]LoadPoint, error) {
	opts = opts.withDefaults(scale, paperQuick, paperFull)
	instances, err := SimInstances(scale)
	if err != nil {
		return nil, err
	}
	g := &sweep.Grid{
		Instances:   instances,
		Policies:    []routing.Policy{pol},
		Patterns:    pats,
		Loads:       opts.Loads,
		Measure:     sweep.MeasureLoad,
		Ranks:       opts.Ranks,
		MsgsPerRank: opts.MsgsPerRank,
		Seed:        opts.Seed,
		Keys:        sweep.Keys{CellKey: loadCellKey},
	}
	results, err := g.Collect(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	// DragonFly, the last instance, is the baseline: its block of
	// (pattern × load) cells closes the instance-major stream.
	return loadPoints(results, results[len(results)-len(pats)*len(opts.Loads):])
}

// Fig8 compares Valiant to minimal routing on SpectralFly only: the
// value is max-time(minimal) / max-time(Valiant) per pattern and load
// (>1 means Valiant helps). Both policy legs of every point run as
// independent cells on the shared runner, but their cell key leaves
// out the policy, so both derive one seed from the (pattern, load)
// point: they replay the same traffic realization (identical arrival
// times and destinations), and the ratio isolates the routing-policy
// effect rather than workload-sampling noise. It reads the fields Fig6
// reads, with the same defaults.
func Fig8(scale Scale, opts Options) ([]LoadPoint, error) {
	opts = opts.withDefaults(scale, paperQuick, paperFull)
	instances, err := SimInstances(scale)
	if err != nil {
		return nil, err
	}
	g := &sweep.Grid{
		Instances:   instances[:1],
		Policies:    []routing.Policy{routing.Minimal, routing.Valiant},
		Patterns:    traffic.SyntheticPatterns,
		Loads:       opts.Loads,
		Measure:     sweep.MeasureLoad,
		Ranks:       opts.Ranks,
		MsgsPerRank: opts.MsgsPerRank,
		Seed:        opts.Seed,
		Keys: sweep.Keys{CellKey: func(c *sweep.Cell) string {
			return fmt.Sprintf("fig8/%s/%s/%v", c.Topology, c.Pattern, c.Load)
		}},
	}
	results, err := g.Collect(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	// Cell order is policy-major: the minimal leg fills the first half
	// of the stream and is the baseline of the Valiant leg's points.
	half := len(results) / 2
	return loadPoints(results[half:], results[:half])
}

// loadPoints reduces load cells against their baseline cells: cell k
// is compared with base[k%len(base)] on max message time.
func loadPoints(cells, base []sweep.Result) ([]LoadPoint, error) {
	points := make([]LoadPoint, 0, len(cells))
	for k := range cells {
		c := &cells[k]
		sp, err := speedup(c, &base[k%len(base)], func(st *simnet.Stats) int64 { return st.MaxLatency })
		if err != nil {
			return nil, err
		}
		points = append(points, LoadPoint{
			Topology:   c.Topology,
			Pattern:    c.Pattern,
			Load:       c.Load,
			MaxLatency: c.Stats.MaxLatency,
			MeanLat:    c.Stats.MeanLatency,
			Speedup:    sp,
		})
	}
	return points, nil
}

// speedup is how many times faster cell ran than its baseline cell on
// metric: base/cell, or 0 when cell measured nothing. A failed cell
// returns its error, which its cell key already names.
func speedup(cell, base *sweep.Result, metric func(*simnet.Stats) int64) (float64, error) {
	if cell.Err != nil {
		return 0, cell.Err
	}
	if base.Err != nil {
		return 0, base.Err
	}
	v := metric(&cell.Stats)
	if v <= 0 {
		return 0, nil
	}
	return float64(metric(&base.Stats)) / float64(v), nil
}

// FprintLoadPoints renders sweep points grouped by pattern.
func FprintLoadPoints(w io.Writer, points []LoadPoint) {
	fprintf(w, "%-22s %-14s %6s %12s %10s\n", "Topology", "Pattern", "Load", "MaxTime", "Speedup")
	for _, p := range points {
		fprintf(w, "%-22s %-14s %6.2f %12d %10.3f\n",
			p.Topology, p.Pattern, p.Load, p.MaxLatency, p.Speedup)
	}
}

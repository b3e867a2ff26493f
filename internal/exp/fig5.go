package exp

import (
	"io"
	"math"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/topo"
)

// Fig5Point is one (topology, failure-proportion) measurement of
// Figure 5, averaged over trials.
type Fig5Point struct {
	Name         string
	Proportion   float64
	Trials       int
	Disconnected int // trials discarded because the graph disconnected
	Diameter     float64
	AvgHop       float64
	Bisection    float64
}

// fig5CVTarget is the coefficient of variation at which a failure
// point stops adding trials.
const fig5CVTarget = 0.10

// Fig5Options tunes the failure sweep.
type Fig5Options struct {
	// Proportions of edges to delete; defaults per scale.
	Proportions []float64
	// MinTrials/MaxTrials bound the adaptive trial count. The paper
	// grows trials until the coefficient of variation of batch means is
	// below 10%; we approximate with fig5CVTarget on trial values.
	MinTrials, MaxTrials int
	// SkipBisection drops the (expensive) bisection measurement.
	SkipBisection bool
	Seed          int64
}

func (o Fig5Options) withDefaults(scale Scale) Fig5Options {
	if o.Proportions == nil {
		if scale == Full {
			o.Proportions = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
		} else {
			o.Proportions = []float64{0, 0.1, 0.3, 0.5}
		}
	}
	if o.MinTrials == 0 {
		if scale == Full {
			o.MinTrials = 5
		} else {
			o.MinTrials = 3
		}
	}
	if o.MaxTrials == 0 {
		if scale == Full {
			o.MaxTrials = 30
		} else {
			o.MaxTrials = 5
		}
	}
	if o.Seed == 0 {
		o.Seed = BaseSeed
	}
	return o
}

// Fig5 runs the §IV-A edge-failure study on one size class (the paper
// uses class 1 (~600 vertices) for the left column and class 3 (~5K)
// for the right). It returns one point per topology per proportion,
// or an error if a proportion lies outside [0, 1].
func Fig5(class int, scale Scale, opts Fig5Options) ([]Fig5Point, error) {
	opts = opts.withDefaults(scale)
	for _, prop := range opts.Proportions {
		if err := (fault.Plan{Kind: fault.Links, Fraction: prop}).Validate(); err != nil {
			return nil, err
		}
	}
	specs, err := classSpecs([]int{class}, scale)
	if err != nil {
		return nil, err
	}
	var points []Fig5Point
	for _, spec := range specs {
		inst, err := spec.Build()
		if err != nil {
			return nil, err
		}
		for _, prop := range opts.Proportions {
			points = append(points, failurePoint(inst, prop, opts))
		}
	}
	return points, nil
}

type trialResult struct {
	ok                      bool
	diam, avgHop, bisection float64
}

func failurePoint(inst *topo.Instance, prop float64, opts Fig5Options) Fig5Point {
	pt := Fig5Point{Name: inst.Name, Proportion: prop}
	var vals []trialResult
	runBatch := func(from, to int) {
		results := make([]trialResult, to-from)
		graph.EachSource(to-from, func() func(int) {
			return func(i int) {
				rng := rand.New(rand.NewSource(opts.Seed + int64(from+i)*31337))
				results[i] = failureTrial(inst, prop, rng, opts)
			}
		})
		vals = append(vals, results...)
	}
	runBatch(0, opts.MinTrials)
	// Adaptive growth until the diameter CV is below target (diameter is
	// the noisiest of the three measures).
	for len(vals) < opts.MaxTrials && prop > 0 {
		if cv(vals, func(r trialResult) float64 { return r.diam }) <= fig5CVTarget {
			break
		}
		next := len(vals) * 2
		if next > opts.MaxTrials {
			next = opts.MaxTrials
		}
		runBatch(len(vals), next)
	}
	var nOK int
	for _, r := range vals {
		if !r.ok {
			pt.Disconnected++
			continue
		}
		nOK++
		pt.Diameter += r.diam
		pt.AvgHop += r.avgHop
		pt.Bisection += r.bisection
	}
	pt.Trials = len(vals)
	if nOK > 0 {
		pt.Diameter /= float64(nOK)
		pt.AvgHop /= float64(nOK)
		pt.Bisection /= float64(nOK)
	}
	return pt
}

func failureTrial(inst *topo.Instance, prop float64, rng *rand.Rand, opts Fig5Options) trialResult {
	g := inst.G
	if prop != 0 {
		g = g.RemoveEdges(fault.SampleLinks(g, prop, rng))
	}
	st := g.AllPairsStats()
	if !st.Connected {
		return trialResult{ok: false}
	}
	r := trialResult{ok: true, diam: float64(st.Diameter), avgHop: st.AvgDist}
	if !opts.SkipBisection {
		r.bisection = float64(partition.BisectionBandwidth(g, partition.Options{
			Seed:   rng.Int63(),
			Trials: 4,
		}))
	}
	return r
}

func cv(vals []trialResult, f func(trialResult) float64) float64 {
	var xs []float64
	for _, v := range vals {
		if v.ok {
			xs = append(xs, f(v))
		}
	}
	if len(xs) < 2 {
		return math.Inf(1)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0
	}
	var varsum float64
	for _, x := range xs {
		varsum += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(varsum / float64(len(xs)-1))
	return sd / mean
}

// FprintFig5 renders failure points.
func FprintFig5(w io.Writer, points []Fig5Point) {
	fprintf(w, "%-14s %6s %7s %8s %9s %10s %6s\n",
		"Topology", "Prop", "Trials", "Diam", "AvgHop", "Bisection", "Disc")
	for _, p := range points {
		fprintf(w, "%-14s %6.2f %7d %8.2f %9.3f %10.1f %6d\n",
			p.Name, p.Proportion, p.Trials, p.Diameter, p.AvgHop, p.Bisection, p.Disconnected)
	}
}

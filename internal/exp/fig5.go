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

// fig5Sweep is Fig 5's per-scale failure sweep: the proportions of
// edges to delete and the bounds of the adaptive trial count. The paper
// grows trials until the coefficient of variation of batch means is
// below 10%; failurePoint approximates that with fig5CVTarget on trial
// values.
type fig5Sweep struct {
	proportions          []float64
	minTrials, maxTrials int
}

var (
	fig5Quick = fig5Sweep{[]float64{0, 0.1, 0.3, 0.5}, 3, 5}
	fig5Full  = fig5Sweep{[]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, 5, 30}
)

// Fig5 runs the §IV-A edge-failure study. It returns one point per
// topology per proportion. It reads Classes (class 1 at both scales;
// the paper uses class 1 (~600 vertices) for the left column and class
// 3 (~5K) for the right, so Classes 1, 3 gives both) and Seed.
func Fig5(scale Scale, opts Options) ([]Fig5Point, error) {
	opts = opts.withDefaults(scale, Options{Classes: []int{1}}, Options{Classes: []int{1}})
	sw := fig5Quick
	if scale == Full {
		sw = fig5Full
	}
	specs, err := classSpecs(opts.Classes)
	if err != nil {
		return nil, err
	}
	var points []Fig5Point
	for _, spec := range specs {
		inst, err := spec.Build()
		if err != nil {
			return nil, err
		}
		for _, prop := range sw.proportions {
			points = append(points, failurePoint(inst, prop, sw, opts.Seed))
		}
	}
	return points, nil
}

type trialResult struct {
	ok                      bool
	diam, avgHop, bisection float64
}

func failurePoint(inst *topo.Instance, prop float64, sw fig5Sweep, seed int64) Fig5Point {
	pt := Fig5Point{Name: inst.Name, Proportion: prop}
	var vals []trialResult
	runBatch := func(from, to int) {
		results := make([]trialResult, to-from)
		graph.EachSource(to-from, func() func(int) {
			return func(i int) {
				rng := rand.New(rand.NewSource(seed + int64(from+i)*31337))
				results[i] = failureTrial(inst, prop, rng)
			}
		})
		vals = append(vals, results...)
	}
	runBatch(0, sw.minTrials)
	// Adaptive growth until the diameter CV is below target (diameter is
	// the noisiest of the three measures).
	for len(vals) < sw.maxTrials && prop > 0 {
		if cv(vals, func(r trialResult) float64 { return r.diam }) <= fig5CVTarget {
			break
		}
		runBatch(len(vals), min(len(vals)*2, sw.maxTrials))
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

func failureTrial(inst *topo.Instance, prop float64, rng *rand.Rand) trialResult {
	g := inst.G
	if prop != 0 {
		g = g.RemoveEdges(fault.SampleLinks(g, prop, rng))
	}
	st := g.AllPairsStats()
	if !st.Connected {
		return trialResult{ok: false}
	}
	return trialResult{
		ok:     true,
		diam:   float64(st.Diameter),
		avgHop: st.AvgDist,
		bisection: float64(partition.BisectionBandwidth(g, partition.Options{
			Seed:   rng.Int63(),
			Trials: 4,
		})),
	}
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

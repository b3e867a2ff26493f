package exp

import (
	"io"
	"math"

	"repro/internal/graph"
)

// Fig3Row quantifies Figure 3 and §IV-b: the distance distribution of a
// topology, the fraction of pairs at the diameter, and Sardari's
// concentration bound — only ~n^(1-ε) pairs lie beyond
// (1+ε)·log_{k-1}(n) in a Ramanujan graph.
type Fig3Row struct {
	Name       string
	Diameter   int
	Hist       []int64 // ordered pairs by distance
	AtDiameter float64 // fraction of pairs at the diameter
	SardariCut int     // ⌈(1+ε)·log_{k-1}(n)⌉ with ε = 0.1
	TailBeyond float64 // fraction of pairs beyond SardariCut
	Ball6      int     // |B(v, 6)| from vertex 0 (Fig 3 right panel)
}

// Fig3 measures the class instances' distance structure. The paper's
// observation: LPS has "relatively fewer vertices at distance equal to
// the diameter" — its AtDiameter is small, while SlimFly's diameter-2
// shell holds nearly all pairs. It reads Classes (class 0 quick, class
// 1 full).
func Fig3(scale Scale, opts Options) ([]Fig3Row, error) {
	opts = opts.withDefaults(scale, Options{Classes: []int{0}}, Options{Classes: []int{1}})
	specs, err := classSpecs(opts.Classes)
	if err != nil {
		return nil, err
	}
	var rows []Fig3Row
	for _, spec := range specs {
		inst, err := spec.Build()
		if err != nil {
			return nil, err
		}
		g := inst.G
		k, _ := g.Regularity()
		hist, _ := g.DistanceHistogram()
		diam := len(hist) - 1
		var total int64
		for _, c := range hist {
			total += c
		}
		row := Fig3Row{
			Name:     inst.Name,
			Diameter: diam,
			Hist:     hist,
			Ball6:    lastBall(g, 6),
		}
		if total > 0 {
			row.AtDiameter = float64(hist[diam]) / float64(total)
		}
		if k > 2 {
			cut := int(math.Ceil(1.1 * math.Log(float64(g.N())) / math.Log(float64(k-1))))
			row.SardariCut = cut
			row.TailBeyond = graph.TailFraction(hist, cut)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func lastBall(g *graph.Graph, r int) int {
	sizes := g.BallSizes(0, r)
	return sizes[len(sizes)-1]
}

// FprintFig3 renders the distance distributions.
func FprintFig3(w io.Writer, rows []Fig3Row) {
	fprintf(w, "%-12s %5s %10s %10s %9s %8s  histogram\n",
		"Topology", "Diam", "AtDiam", "SardariD", "TailFrac", "Ball6")
	for _, r := range rows {
		fprintf(w, "%-12s %5d %10.4f %10d %9.5f %8d  %v\n",
			r.Name, r.Diameter, r.AtDiameter, r.SardariCut, r.TailBeyond, r.Ball6, r.Hist)
	}
}

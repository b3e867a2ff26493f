package exp

import (
	"io"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/partition"
	"repro/internal/topo"
)

// Table2Row is one row of Table II: wire length and energy efficiency
// of the heuristic machine-room embedding, plus the SkyWalk reference
// values (averaged over instantiations) in the same machine room.
type Table2Row struct {
	Name        string
	Routers     int
	Radix       int
	AvgWire     float64
	MaxWire     float64
	SkyAvgWire  float64 // mean over SkyWalk instantiations
	SkyMaxWire  float64
	Electrical  int
	Optical     int
	Bisection   int
	PowerW      float64
	PowerPerBW  float64 // mW per Gb/s
	SkyWalkRuns int
}

// Table2 reproduces the §VII layout study for the LPS/SF pairs of
// Table II (see eachLayout). It reads Seed.
func Table2(scale Scale, opts Options) ([]Table2Row, error) {
	opts = opts.withDefaults(scale, Options{}, Options{})
	bisectTrials := 4
	if scale == Full {
		bisectTrials = 8
	}
	var rows []Table2Row
	err := eachLayout(scale, opts.Seed, func(inst *topo.Instance, p *layout.Placement, sky []*graph.Graph, skyPlace *layout.Placement) {
		g := inst.G
		k, _ := g.Regularity()
		ws := layout.Stats(g, p, 0)
		bisect := partition.BisectionBandwidth(g, partition.Options{Seed: opts.Seed, Trials: bisectTrials})
		// The SkyWalk reference is the mean (avg, max) wire length over
		// its instantiations in the same machine room.
		var skyAvg, skyMax float64
		for _, skg := range sky {
			sws := layout.Stats(skg, skyPlace, 0)
			skyAvg += sws.AvgWire
			skyMax += sws.MaxWire
		}
		rows = append(rows, Table2Row{
			Name:        inst.Name,
			Routers:     g.N(),
			Radix:       k,
			AvgWire:     ws.AvgWire,
			MaxWire:     ws.MaxWire,
			SkyAvgWire:  skyAvg / float64(len(sky)),
			SkyMaxWire:  skyMax / float64(len(sky)),
			Electrical:  ws.Electrical,
			Optical:     ws.Optical,
			Bisection:   bisect,
			PowerW:      ws.PowerW,
			PowerPerBW:  layout.PowerPerBandwidth(ws.PowerW, bisect),
			SkyWalkRuns: len(sky),
		})
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// eachLayout builds every Table II instance of the study's pairs (the
// first two at Quick scale, all four at Full), lays it out in its
// machine room with the study's annealer (the layout package defaults
// at Full scale, two restarts of four sweeps at Quick), samples the
// SkyWalk references sized for it (3 instantiations at Quick, 20 at
// Full), and hands all of them to f in table order.
func eachLayout(scale Scale, seed int64, f func(inst *topo.Instance, p *layout.Placement, sky []*graph.Graph, skyPlace *layout.Placement)) error {
	pairs, skyRuns := topo.TableIISpecs[:], 20
	lo := layout.Options{Seed: seed}
	if scale != Full {
		pairs, skyRuns = pairs[:2], 3
		lo.Restarts, lo.Sweeps = 2, 4
	}
	for _, pair := range pairs {
		for _, spec := range pair {
			inst, err := spec.Build()
			if err != nil {
				return err
			}
			k, _ := inst.G.Regularity()
			sky, skyPlace, err := skyWalkInstances(inst.G.N(), k, skyRuns, seed)
			if err != nil {
				return err
			}
			f(inst, layout.Optimize(inst.G, lo), sky, skyPlace)
		}
	}
	return nil
}

// FprintTable2 renders rows in the paper's Table II format (SkyWalk
// means in parentheses).
func FprintTable2(w io.Writer, rows []Table2Row) {
	fprintf(w, "%-12s %7s %5s %16s %16s %6s %6s %9s %9s %10s\n",
		"Topology", "Routers", "Radix", "AvgWire(Sky)", "MaxWire(Sky)",
		"Elec", "Optic", "Bisect", "Power(W)", "mW/(Gb/s)")
	for _, r := range rows {
		fprintf(w, "%-12s %7d %5d %7.2f (%6.2f) %7.1f (%6.1f) %6d %6d %9d %9.0f %10.1f\n",
			r.Name, r.Routers, r.Radix, r.AvgWire, r.SkyAvgWire,
			r.MaxWire, r.SkyMaxWire, r.Electrical, r.Optical,
			r.Bisection, r.PowerW, r.PowerPerBW)
	}
}

// Fig11Point is one latency-ratio measurement of Figure 11.
type Fig11Point struct {
	Name     string
	SwitchNs float64
	AvgRatio float64 // topology avg latency / SkyWalk avg latency
	MaxRatio float64
}

// Fig11 computes end-to-end latency relative to SkyWalk as a function
// of switch latency for the Table II instances (see eachLayout). It
// reads Seed.
func Fig11(scale Scale, opts Options) ([]Fig11Point, error) {
	opts = opts.withDefaults(scale, Options{}, Options{})
	switchLats := []float64{0, 25, 50, 75, 100, 150, 200, 250}
	if scale != Full {
		switchLats = []float64{0, 100, 250}
	}
	var points []Fig11Point
	err := eachLayout(scale, opts.Seed, func(inst *topo.Instance, p *layout.Placement, sky []*graph.Graph, skyPlace *layout.Placement) {
		// One all-pairs profile per graph serves every switch latency.
		ownProf := layout.Profile(inst.G, p)
		skyProfs := make([]*layout.PathProfile, len(sky))
		for i, skg := range sky {
			skyProfs[i] = layout.Profile(skg, skyPlace)
		}
		for _, s := range switchLats {
			own := ownProf.Latency(s)
			var avgB, maxB float64
			for _, sp := range skyProfs {
				ls := sp.Latency(s)
				avgB += ls.AvgNs
				maxB += ls.MaxNs
			}
			avgB /= float64(len(skyProfs))
			maxB /= float64(len(skyProfs))
			points = append(points, Fig11Point{
				Name:     inst.Name,
				SwitchNs: s,
				AvgRatio: own.AvgNs / avgB,
				MaxRatio: own.MaxNs / maxB,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// skyWalkInstances samples the SkyWalk references of one Table II
// instance: runs seeded instantiations in the machine room sized for n
// routers, with that room's sequential placement.
func skyWalkInstances(n, k, runs int, seed int64) ([]*graph.Graph, *layout.Placement, error) {
	place := layout.SequentialPlacement(n)
	var out []*graph.Graph
	for s := 0; s < runs; s++ {
		inst, err := topo.SkyWalk(n, k, place.RouterDistance, 0, seed+int64(s)*37)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, inst.G)
	}
	return out, place, nil
}

// FprintFig11 renders the latency ratio series.
func FprintFig11(w io.Writer, points []Fig11Point) {
	fprintf(w, "%-12s %10s %10s %10s\n", "Topology", "Switch(ns)", "AvgRatio", "MaxRatio")
	for _, p := range points {
		fprintf(w, "%-12s %10.0f %10.3f %10.3f\n", p.Name, p.SwitchNs, p.AvgRatio, p.MaxRatio)
	}
}

package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// MotifPoint is one Ember-motif measurement (Figures 9-10).
type MotifPoint struct {
	Topology string
	Motif    string
	Makespan int64
	MeanLat  float64
	P99Lat   int64
	Speedup  float64 // vs DragonFly at the same motif & routing
}

// MotifSet returns the four §VI-D motifs at the given scale together
// with the rank count they are sized for — in exhibit order: Halo3D-26,
// Sweep3D, balanced FFT, unbalanced FFT. The fig9/fig10 presets and
// the CLI's generic sweep share this table, so the shapes cannot
// silently diverge.
func MotifSet(scale Scale) ([]traffic.Motif, int) {
	if scale == Full {
		// 8192 ranks, matching the paper's job size.
		return []traffic.Motif{
			traffic.Halo3D26{NX: 32, NY: 16, NZ: 16, Iters: 2},
			traffic.Sweep3D{PX: 128, PY: 64, Sweeps: 1},
			traffic.FFT{NX: 32, NY: 32, NZ: 8, Iters: 1}, // balanced
			traffic.FFT{NX: 128, NY: 8, NZ: 8, Iters: 1}, // unbalanced
		}, 8192
	}
	return []traffic.Motif{
		traffic.Halo3D26{NX: 8, NY: 8, NZ: 8, Iters: 2},
		traffic.Sweep3D{PX: 32, PY: 16, Sweeps: 1},
		traffic.FFT{NX: 8, NY: 8, NZ: 8, Iters: 1},  // balanced
		traffic.FFT{NX: 32, NY: 4, NZ: 4, Iters: 1}, // unbalanced
	}, 512
}

// Fig9 runs the Ember motifs of §VI-D on the §VI-B topology set under
// minimal routing. It reads Seed, Parallel and Workers; MotifSet sizes
// the job.
func Fig9(scale Scale, opts Options) ([]MotifPoint, error) {
	return motifSweep(scale, opts, routing.Minimal)
}

// Fig10 runs the motifs of Fig9 under UGAL-L routing. It reads the
// fields Fig9 reads.
func Fig10(scale Scale, opts Options) ([]MotifPoint, error) {
	return motifSweep(scale, opts, routing.UGALL)
}

// motifSweep runs the (topology × motif) grid under one routing policy
// through the parallel engine. Speedups are relative to the DragonFly
// makespan.
func motifSweep(scale Scale, opts Options, pol routing.Policy) ([]MotifPoint, error) {
	opts = opts.withDefaults(scale, Options{}, Options{})
	instances, err := SimInstances(scale)
	if err != nil {
		return nil, err
	}
	motifs, ranks := MotifSet(scale)
	g := &sweep.Grid{
		Instances: instances,
		Policies:  []routing.Policy{pol},
		Motifs:    motifs,
		Measure:   sweep.MeasureMotif,
		Ranks:     ranks,
		Seed:      opts.Seed,
		Keys: sweep.Keys{CellKey: func(c *sweep.Cell) string {
			return fmt.Sprintf("motif/%s/%s/%s", c.Topology, c.Policy, c.MotifTag)
		}},
	}
	results, err := g.Collect(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	// DragonFly, the last instance, is the baseline: its motif cells
	// close the instance-major stream.
	base := results[len(results)-len(motifs):]
	points := make([]MotifPoint, 0, len(results))
	for k := range results {
		res := &results[k]
		sp, err := speedup(res, &base[k%len(base)], func(st *simnet.Stats) int64 { return st.Makespan })
		if err != nil {
			return nil, err
		}
		points = append(points, MotifPoint{
			Topology: res.Topology,
			Motif:    res.MotifTag,
			Makespan: res.Stats.Makespan,
			MeanLat:  res.Stats.MeanLatency,
			P99Lat:   res.Stats.P99Latency,
			Speedup:  sp,
		})
	}
	return points, nil
}

// FprintMotifPoints renders motif results.
func FprintMotifPoints(w io.Writer, points []MotifPoint) {
	fprintf(w, "%-22s %-18s %14s %12s %12s %8s\n", "Topology", "Motif", "Makespan", "MeanLat", "P99Lat", "Speedup")
	for _, p := range points {
		fprintf(w, "%-22s %-18s %14d %12.1f %12d %8.3f\n",
			p.Topology, p.Motif, p.Makespan, p.MeanLat, p.P99Lat, p.Speedup)
	}
}

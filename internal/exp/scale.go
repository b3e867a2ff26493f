package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// ScalePoint is one row of the large-n sweep: a Table II scale-ladder
// instance driven through a saturation search and one
// damaged-topology load point, with the routing-oracle footprint that
// made the run feasible reported alongside the performance numbers.
type ScalePoint struct {
	Topology  string
	Routers   int
	Endpoints int
	// Store names the routing-table backend: always "packed", the
	// compact oracle the sweep exists to exercise.
	Store string
	// Saturation is the measured knee under uniform traffic.
	Saturation float64
	// Degraded* report the link-failure resilience point: delivered
	// fraction and tail latency at the sweep's fraction of random link cuts.
	DegradedDelivered float64
	DegradedP99       float64
	// PeakTableBytes is the largest distance-store footprint the
	// runner's memo held at any cell boundary of this instance's runs.
	// The maximum lands in the repair window, where the intact and the
	// freshly repaired table are briefly memoized together (the intact
	// one is released before the degraded point's cells run). With the
	// packed store an intact LPS table is its Cayley view (a few MB at
	// 40K routers), so on LPS rungs the window holds one packed table
	// of rows, the repaired one, plus that view. This is the number the
	// 1.5 GB budget of the 40K class is checked against.
	PeakTableBytes int64
	// PeakSimBytes is the largest simulator working set any cell of
	// this instance reported (Stats.MemoryBytes: event scheduler +
	// packet arena + latency digest + port state). With the streaming
	// run loop it tracks the in-flight packet population, not the total
	// offered traffic of the run.
	PeakSimBytes int64
}

// scaleDegradedLoad is the offered load of the degraded point.
const scaleDegradedLoad = 0.3

// scaleInstances returns the instance set of the sweep: at Full scale
// the selected rungs of topo.TableIIScaleSpecs (up to ~40K routers);
// at Quick scale small stand-ins with the identical code path, so CI
// exercises the driver in seconds.
func scaleInstances(scale Scale, rungs []int) ([]sweep.Instance, error) {
	// Concentration 1: the ladder scales the router count, and the
	// routing table — not the NIC count — is what the sweep stresses.
	if scale != Full {
		return buildInstances([]instanceSpec{
			{topo.Spec{Kind: "lps", Args: []int64{11, 7}}, 1},
			{topo.Spec{Kind: "sf", Args: []int64{9}}, 1},
		})
	}
	if rungs == nil {
		for i := range topo.TableIIScaleSpecs {
			rungs = append(rungs, i)
		}
	}
	var specs []instanceSpec
	for _, r := range rungs {
		if r < 0 || r >= len(topo.TableIIScaleSpecs) {
			return nil, fmt.Errorf("exp: scale rung %d out of range [0,%d)", r, len(topo.TableIIScaleSpecs))
		}
		for _, s := range topo.TableIIScaleSpecs[r] {
			specs = append(specs, instanceSpec{s, 1})
		}
	}
	return buildInstances(specs)
}

// ScaleSweep runs the large-n end of Table II: for every selected
// scale-ladder instance it measures the saturation knee and one
// degraded (random link failure) load point on packed routing tables
// (on an intact LPS rung, the Cayley table), so the biggest rungs fit
// in memory at all — a 40K-router dense table alone is ~6.3 GB, and
// the resilience design holds one repaired table per fault plan on
// top. The packed store is pinned, not left to the size rule, even for
// the Quick stand-ins: the compact oracle is what the sweep measures.
// Instances run strictly one at a time and are Released before the
// next begins, so PeakTableBytes reflects the per-instance working
// set, which the packed oracle keeps under the 1.5 GB class budget.
//
// It reads Rungs (default all at Full scale; Quick scale ignores it and
// runs small stand-ins), Fractions, the single link-failure fraction
// of the degraded point (default 0.01; an intact baseline is the
// resilience exhibit's job, not this one's), MsgsPerRank (4 quick, 10
// full), Seed, Parallel and Workers (with Workers >= 2 and Parallel
// unset, the pool is sized GOMAXPROCS / Workers).
//
// Like every simulation driver, cell seeds derive from stable keys:
// results are bit-identical across Parallel settings.
func ScaleSweep(scale Scale, opts Options) ([]ScalePoint, error) {
	return scaleSweep(scale, opts, routing.StorePacked)
}

// scaleSweep is ScaleSweep on the given routing-table store; only the
// cross-store tests pass anything but packed.
func scaleSweep(scale Scale, opts Options, store routing.Store) ([]ScalePoint, error) {
	fraction := 0.01
	switch fr := opts.Fractions; {
	case len(fr) > 1:
		// One degraded point per rung: silently dropping the rest would
		// under-run the grid the caller asked for.
		return nil, fmt.Errorf("exp: scale takes a single fraction, got %d", len(fr))
	case len(fr) == 1 && fr[0] <= 0:
		return nil, fmt.Errorf("exp: scale needs a fraction > 0 (for an intact baseline use the resilience exhibit)")
	case len(fr) == 1:
		fraction = fr[0]
	}
	opts = opts.withDefaults(scale, Options{MsgsPerRank: 4}, Options{MsgsPerRank: 10})
	instances, err := scaleInstances(scale, opts.Rungs)
	if err != nil {
		return nil, err
	}
	points := make([]ScalePoint, 0, len(instances))
	for _, si := range instances {
		pt := ScalePoint{
			Topology:  si.Name,
			Routers:   si.Inst.G.N(),
			Endpoints: si.Endpoints(),
			Store:     store.String(),
		}
		runOpts := sweep.Options{
			Parallel: opts.Parallel,
			Workers:  opts.Workers,
			Tables:   routing.TableOptions{Store: store},
			// Track the peak across every batch and repair boundary; the
			// maximum lands in the repair window, where the intact and
			// the freshly repaired table are briefly memoized together
			// (1% cuts on an expander leave few shards shareable, so
			// with row tables that is close to 2× one table; a packed
			// LPS table is its Cayley view, so there it is one table of
			// rows plus the view) — the honest per-instance peak, and
			// the number the 1.5 GB budget of the 40K class is checked
			// against.
			OnTableBytes: func(b int64) {
				if b > pt.PeakTableBytes {
					pt.PeakTableBytes = b
				}
			},
		}
		// A fresh engine per instance keeps the memo (and therefore the
		// peak-bytes sample) scoped to one rung at a time. Both grids of
		// the rung share it, so the degraded grid derives its table from
		// the saturation grid's memoized one with Table.Repair, sharing
		// every unchanged row, instead of building an unshared table.
		runOpts.Runner = runOpts.Engine()

		// Phase 1: the saturation knee on the intact instance.
		sat := &sweep.Grid{
			Instances:   []sweep.Instance{si},
			Measure:     sweep.MeasureSaturation,
			MsgsPerRank: opts.MsgsPerRank,
			Seed:        opts.Seed,
			Keys: sweep.Keys{CellKey: func(c *sweep.Cell) string {
				return fmt.Sprintf("scale/%s/saturation", c.Topology)
			}},
		}
		res, err := sat.Collect(context.Background(), runOpts)
		if err != nil {
			return nil, err
		}
		if res[0].Err != nil {
			return nil, res[0].Err
		}
		pt.Saturation = res[0].Saturation

		// Phase 2: the degraded point — the core samples the link-failure
		// plan, repairs the intact table (Table.Repair), releases the
		// intact table before the damaged cells run (only one table stays
		// memoized while they execute — at the 40K rung a packed table of
		// rows is ~790 MB, and holding every plan's table at once was the
		// dense design's second multiplier), and releases the damaged
		// table afterwards.
		deg := &sweep.Grid{
			Instances:   []sweep.Instance{si},
			OmitIntact:  true,
			Faults:      []sweep.FaultAxis{{Kind: fault.Links, Fraction: fraction}},
			Policies:    []routing.Policy{routing.Minimal},
			Patterns:    []traffic.Pattern{traffic.Random},
			Loads:       []float64{scaleDegradedLoad},
			Measure:     sweep.MeasureLoad,
			Ranks:       si.Endpoints(),
			MsgsPerRank: opts.MsgsPerRank,
			Seed:        opts.Seed,
			Keys: sweep.Keys{
				CellKey: func(c *sweep.Cell) string {
					return fmt.Sprintf("scale/%s/degraded/%v/%v", c.Topology, c.Fraction, c.Load)
				},
				PlanKey: func(topology string, f sweep.FaultAxis, _ int) string {
					return fmt.Sprintf("scale/%s/plan/%v", topology, f.Fraction)
				},
			},
		}
		res, err = deg.Collect(context.Background(), runOpts)
		if err != nil {
			return nil, err
		}
		if res[0].Err != nil {
			return nil, res[0].Err
		}
		pt.DegradedDelivered = res[0].Stats.DeliveredFraction()
		pt.DegradedP99 = float64(res[0].Stats.P99Latency)
		// The one degraded cell is the rung's only simulation with a
		// working set: saturation cells carry empty Stats.
		pt.PeakSimBytes = res[0].Stats.MemoryBytes
		points = append(points, pt)
	}
	return points, nil
}

// FprintScale renders the scale sweep.
func FprintScale(w io.Writer, points []ScalePoint) {
	fprintf(w, "%-14s %8s %10s %7s %11s %10s %10s %14s %12s\n",
		"Topology", "Routers", "Endpoints", "Store", "Saturation", "DegDeliv", "DegP99", "PeakTableMB", "PeakSimMB")
	for _, p := range points {
		fprintf(w, "%-14s %8d %10d %7s %11.2f %10.4f %10.1f %14.1f %12.1f\n",
			p.Topology, p.Routers, p.Endpoints, p.Store, p.Saturation,
			p.DegradedDelivered, p.DegradedP99, float64(p.PeakTableBytes)/(1<<20),
			float64(p.PeakSimBytes)/(1<<20))
	}
}

package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/sweep"
)

// SaturationRow records the measured saturation load of one simulated
// topology under uniform traffic — §VI-C observes that "at or beyond
// 70% of the network capacity, the network becomes saturated"; this
// exhibit measures the knee directly for the §VI-B instance set.
type SaturationRow struct {
	Topology   string
	Endpoints  int
	Saturation float64 // offered load at the latency knee
}

// Saturation measures the saturation load of every §VI-B topology at
// the given scale; the per-topology bisection searches run as
// independent cells on the parallel engine. It reads MsgsPerRank
// (Fig6's default, bounded to 60 and at full scale raised to 40), Seed,
// Parallel and Workers.
func Saturation(scale Scale, opts Options) ([]SaturationRow, error) {
	opts = opts.withDefaults(scale, paperQuick, paperFull)
	instances, err := SimInstances(scale)
	if err != nil {
		return nil, err
	}
	msgs := opts.MsgsPerRank
	if msgs > 60 {
		msgs = 60 // saturation search reruns many loads; bound run length
	} else if msgs < 40 && scale == Full {
		msgs = 40 // long enough for queues to reach steady state
	}
	g := &sweep.Grid{
		Instances:   instances,
		Measure:     sweep.MeasureSaturation,
		MsgsPerRank: msgs,
		Seed:        opts.Seed,
		Keys: sweep.Keys{CellKey: func(c *sweep.Cell) string {
			return fmt.Sprintf("saturation/%s", c.Topology)
		}},
	}
	results, err := g.Collect(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	rows := make([]SaturationRow, 0, len(instances))
	for i, si := range instances {
		if results[i].Err != nil {
			return nil, results[i].Err
		}
		rows = append(rows, SaturationRow{
			Topology:   si.Name,
			Endpoints:  si.Endpoints(),
			Saturation: results[i].Saturation,
		})
	}
	return rows, nil
}

// FprintSaturation renders the saturation table.
func FprintSaturation(w io.Writer, rows []SaturationRow) {
	fprintf(w, "%-28s %10s %12s\n", "Topology", "Endpoints", "Saturation")
	for _, r := range rows {
		fprintf(w, "%-28s %10d %12.2f\n", r.Topology, r.Endpoints, r.Saturation)
	}
}

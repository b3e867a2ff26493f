package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/version"
)

// appConfig carries every flag a subcommand can consume. The CLI
// parses flags into one of these; the golden tests build tiny ones by
// hand — both go through the same command table, so the tests pin the
// exact JSON documents the binary emits. Every simulation exhibit
// takes opts as is; each driver resolves its zero fields to its own
// defaults.
type appConfig struct {
	scale   exp.Scale
	classes []int
	class   int
	maxPQ   int64
	maxN    int
	opts    exp.SimOptions
}

// exhibit is one paper exhibit the CLI regenerates: its subcommand
// name, one-line help, the driver computing its result from the
// parsed flags, and the printer rendering that result as a table
// (-json encodes the result instead).
type exhibit struct {
	name, help string
	run        func(appConfig) (any, error)
	print      func(io.Writer, any)
	// explicit exhibits run only when named, never as part of `all`.
	explicit bool
}

// newExhibit ties an exhibit's driver and printer to one result type.
func newExhibit[T any](name, help string, run func(appConfig) (T, error), print func(io.Writer, T)) exhibit {
	return exhibit{
		name: name,
		help: help,
		run: func(cfg appConfig) (any, error) {
			result, err := run(cfg)
			return result, err
		},
		print: func(w io.Writer, result any) { print(w, result.(T)) },
	}
}

// exhibits is the ordered exhibit table: dispatch, `all`, usage and
// the golden tests all range over it.
var exhibits = []exhibit{
	newExhibit("table1", "structural properties of the Table I size classes",
		func(cfg appConfig) ([]exp.Table1Row, error) { return exp.Table1(cfg.classes, cfg.scale) },
		exp.FprintTable1),
	newExhibit("fig3", "distance distribution and concentration of one size class",
		func(cfg appConfig) ([]exp.Fig3Row, error) { return exp.Fig3(int(pick(cfg.scale, 0, 1))) },
		exp.FprintFig3),
	newExhibit("fig4-feasible", "feasible LPS (radix, size) points",
		func(cfg appConfig) ([]topo.Feasible, error) {
			bound := cfg.maxPQ
			if bound == 0 {
				bound = pick(cfg.scale, 100, 300)
			}
			return exp.Fig4Feasible(bound), nil
		},
		func(w io.Writer, r []topo.Feasible) {
			exp.FprintFeasible(w, r)
			fmt.Fprintf(w, "(%d feasible instances)\n", len(r))
		}),
	newExhibit("fig4-sizes", "feasible sizes per radix for all four families",
		func(cfg appConfig) (exp.Fig4Sizes, error) {
			s := cfg.scale
			return exp.Fig4FeasibleSizes(pick(s, 60, 300), pick(s, 60, 300),
				int(pick(s, 60, 120)), pick(s, 60, 200), pick(s, 12, 16)), nil
		},
		func(w io.Writer, r exp.Fig4Sizes) {
			fmt.Fprintln(w, "LPS:")
			exp.FprintFeasible(w, r.LPS)
			fmt.Fprintln(w, "SlimFly:")
			exp.FprintFeasible(w, r.SlimFly)
			fmt.Fprintln(w, "DragonFly:")
			exp.FprintFeasible(w, r.DragonFly)
			fmt.Fprintln(w, "BundleFly (max size per radix):")
			exp.FprintFeasible(w, r.BundleFlyMax)
		}),
	newExhibit("fig4-normbw", "normalized bisection bandwidth of LPS instances",
		func(cfg appConfig) ([]exp.BisectionRow, error) {
			bound := cfg.maxPQ
			if bound == 0 {
				bound = pick(cfg.scale, 30, 100)
			}
			return exp.Fig4NormalizedBisection(bound, cfg.maxN)
		},
		exp.FprintBisection),
	newExhibit("fig4-rawbw", "raw bisection bandwidth comparison",
		func(cfg appConfig) ([]exp.BisectionRow, error) { return exp.Fig4RawBisection(cfg.classes, cfg.scale) },
		exp.FprintBisection),
	newExhibit("fig5", "structural properties under random link failures",
		func(cfg appConfig) ([]exp.Fig5Point, error) {
			return exp.Fig5(cfg.class, cfg.scale, exp.Fig5Options{Seed: cfg.opts.Seed})
		},
		exp.FprintFig5),
	newExhibit("fig6", "UGAL-L synthetic-pattern sweep (speedup vs DragonFly)",
		func(cfg appConfig) ([]exp.LoadPoint, error) { return exp.Fig6(cfg.scale, cfg.opts) },
		exp.FprintLoadPoints),
	newExhibit("fig7", "minimal-routing random-pattern sweep",
		func(cfg appConfig) ([]exp.LoadPoint, error) { return exp.Fig7(cfg.scale, cfg.opts) },
		exp.FprintLoadPoints),
	newExhibit("fig8", "Valiant vs minimal on SpectralFly",
		func(cfg appConfig) ([]exp.LoadPoint, error) { return exp.Fig8(cfg.scale, cfg.opts) },
		exp.FprintLoadPoints),
	newExhibit("fig9", "Ember motifs under minimal routing",
		func(cfg appConfig) ([]exp.MotifPoint, error) {
			return exp.RunMotifs(cfg.scale, routing.Minimal, cfg.opts)
		},
		exp.FprintMotifPoints),
	newExhibit("fig10", "Ember motifs under UGAL-L routing",
		func(cfg appConfig) ([]exp.MotifPoint, error) {
			return exp.RunMotifs(cfg.scale, routing.UGALL, cfg.opts)
		},
		exp.FprintMotifPoints),
	newExhibit("table2", "machine-room layout: wires, power, efficiency",
		func(cfg appConfig) ([]exp.Table2Row, error) {
			return exp.Table2(cfg.scale, exp.Table2Options{Seed: cfg.opts.Seed})
		},
		exp.FprintTable2),
	newExhibit("fig11", "end-to-end latency vs switch latency (ratio to SkyWalk)",
		func(cfg appConfig) ([]exp.Fig11Point, error) {
			return exp.Fig11(cfg.scale, exp.Table2Options{Seed: cfg.opts.Seed})
		},
		exp.FprintFig11),
	newExhibit("ablations", "design-choice ablation studies (arrangement, spectra, ...)",
		func(cfg appConfig) (exp.Ablations, error) { return exp.RunAblations(cfg.opts) },
		func(w io.Writer, a exp.Ablations) { a.Fprint(w) }),
	newExhibit("saturation", "measured saturation load per simulated topology (§VI-C)",
		func(cfg appConfig) ([]exp.SaturationRow, error) { return exp.Saturation(cfg.scale, cfg.opts) },
		exp.FprintSaturation),
	newExhibit("resilience", "performance under failure: traffic on damaged networks",
		func(cfg appConfig) ([]exp.ResiliencePoint, error) { return exp.Resilience(cfg.scale, cfg.opts) },
		exp.FprintResilience),
	newExhibit("reconfig", "live reconfiguration: static vs rewiring Jellyfish fabric",
		func(cfg appConfig) (*exp.ReconfigReport, error) { return exp.Reconfig(cfg.scale, cfg.opts) },
		exp.FprintReconfig),
	newExhibit("interference", "multi-tenant victim tail latency vs aggressor load and placement",
		func(cfg appConfig) (*exp.InterferenceReport, error) { return exp.Interference(cfg.scale, cfg.opts) },
		exp.FprintInterference),
	// At -full, scale builds six 12K–40K router instances (minutes to
	// hours of simulation each), a cost users must opt into explicitly
	// rather than inherit from `all`.
	optIn(newExhibit("scale", "large-n sweep (Table II ladder to ~40K routers), compact routing",
		func(cfg appConfig) ([]exp.ScalePoint, error) { return exp.ScaleSweep(cfg.scale, cfg.opts) },
		exp.FprintScale)),
}

// optIn marks an exhibit that `all` skips.
func optIn(e exhibit) exhibit {
	e.explicit = true
	return e
}

// encodeJSON writes the one-document-per-exhibit JSON framing of the
// -json flag; the golden tests call it too, so the framing is pinned
// along with the numbers. Every document carries the code version
// stamp, so archived results stay attributable to the build that
// produced them.
func encodeJSON(w io.Writer, name string, scale exp.Scale, result any) error {
	return json.NewEncoder(w).Encode(map[string]any{
		"exhibit": name, "scale": scale.String(), "result": result,
		"version": version.Stamp(),
	})
}

func pick(scale exp.Scale, quick, full int64) int64 {
	if scale == exp.Full {
		return full
	}
	return quick
}

package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/topo"
	"repro/internal/version"
)

// exhibit is one paper exhibit the CLI regenerates: its subcommand
// name, one-line help, the driver computing its result, and the
// printer rendering that result as a table (-json encodes the result
// instead). Every driver takes the scale and the one options value the
// flags bind, as is: each resolves its own zero fields to its
// defaults. The golden tests call the same drivers, so they pin the
// exact JSON documents the binary emits.
type exhibit struct {
	name, help string
	run        func(exp.Scale, exp.Options) (any, error)
	print      func(io.Writer, any)
	// explicit exhibits run only when named, never as part of `all`.
	explicit bool
}

// newExhibit ties an exhibit's driver and printer to one result type.
func newExhibit[T any](name, help string, run func(exp.Scale, exp.Options) (T, error), print func(io.Writer, T)) exhibit {
	return exhibit{
		name: name,
		help: help,
		run: func(scale exp.Scale, opts exp.Options) (any, error) {
			result, err := run(scale, opts)
			return result, err
		},
		print: func(w io.Writer, result any) { print(w, result.(T)) },
	}
}

// exhibits is the ordered exhibit table: dispatch, `all`, usage and
// the golden tests all range over it.
var exhibits = []exhibit{
	newExhibit("table1", "structural properties of the Table I size classes",
		exp.Table1, exp.FprintTable1),
	newExhibit("fig3", "distance distribution and concentration of size classes",
		exp.Fig3, exp.FprintFig3),
	newExhibit("fig4-feasible", "feasible LPS (radix, size) points",
		exp.Fig4Feasible,
		func(w io.Writer, r []topo.Feasible) {
			exp.FprintFeasible(w, r)
			fmt.Fprintf(w, "(%d feasible instances)\n", len(r))
		}),
	newExhibit("fig4-sizes", "feasible sizes per radix for all four families",
		exp.Fig4FeasibleSizes,
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
		exp.Fig4NormalizedBisection, exp.FprintBisection),
	newExhibit("fig4-rawbw", "raw bisection bandwidth comparison",
		exp.Fig4RawBisection, exp.FprintBisection),
	newExhibit("fig5", "structural properties under random link failures",
		exp.Fig5, exp.FprintFig5),
	newExhibit("fig6", "UGAL-L synthetic-pattern sweep (speedup vs DragonFly)",
		exp.Fig6, exp.FprintLoadPoints),
	newExhibit("fig7", "minimal-routing random-pattern sweep",
		exp.Fig7, exp.FprintLoadPoints),
	newExhibit("fig8", "Valiant vs minimal on SpectralFly",
		exp.Fig8, exp.FprintLoadPoints),
	newExhibit("fig9", "Ember motifs under minimal routing",
		exp.Fig9, exp.FprintMotifPoints),
	newExhibit("fig10", "Ember motifs under UGAL-L routing",
		exp.Fig10, exp.FprintMotifPoints),
	newExhibit("table2", "machine-room layout: wires, power, efficiency",
		exp.Table2, exp.FprintTable2),
	newExhibit("fig11", "end-to-end latency vs switch latency (ratio to SkyWalk)",
		exp.Fig11, exp.FprintFig11),
	newExhibit("ablations", "design-choice ablation studies (arrangement, spectra, ...)",
		exp.RunAblations, func(w io.Writer, a exp.Ablations) { a.Fprint(w) }),
	newExhibit("saturation", "measured saturation load per simulated topology (§VI-C)",
		exp.Saturation, exp.FprintSaturation),
	newExhibit("resilience", "performance under failure: traffic on damaged networks",
		exp.Resilience, exp.FprintResilience),
	newExhibit("reconfig", "live reconfiguration: static vs rewiring Jellyfish fabric",
		exp.Reconfig, exp.FprintReconfig),
	newExhibit("interference", "multi-tenant victim tail latency vs aggressor load and placement",
		exp.Interference, exp.FprintInterference),
	// At -full, scale builds six 12K–40K router instances (minutes to
	// hours of simulation each), a cost users must opt into explicitly
	// rather than inherit from `all`.
	optIn(newExhibit("scale", "large-n sweep (Table II ladder to ~40K routers), compact routing",
		exp.ScaleSweep, exp.FprintScale)),
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

package exp

import (
	"fmt"
	"io"

	"repro/internal/spectral"
	"repro/internal/topo"
)

// Table1Row is one row of Table I.
type Table1Row struct {
	Name     string
	Routers  int
	Radix    int
	Diameter int
	Dist     float64
	Girth    int
	Mu1      float64
}

// The default Classes of Table1 and Fig4RawBisection: Table I's
// classes 0-1 at Quick scale and all five at Full.
var (
	tableIQuick = Options{Classes: []int{0, 1}}
	tableIFull  = Options{Classes: []int{0, 1, 2, 3, 4}}
)

// classSpecs lists the instances of the given Table I size classes
// (0-4) in class order; a class out of range is an error.
func classSpecs(classes []int) ([]topo.Spec, error) {
	var specs []topo.Spec
	for _, ci := range classes {
		if ci < 0 || ci >= len(topo.TableISizeClasses) {
			return nil, fmt.Errorf("exp: size class %d out of range", ci)
		}
		specs = append(specs, topo.TableISizeClasses[ci][:]...)
	}
	return specs, nil
}

// Table1 computes the structural rows of Table I. It reads Classes
// (0-1 quick, all five full).
func Table1(scale Scale, opts Options) ([]Table1Row, error) {
	opts = opts.withDefaults(scale, tableIQuick, tableIFull)
	specs, err := classSpecs(opts.Classes)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, spec := range specs {
		inst, err := spec.Build()
		if err != nil {
			return nil, fmt.Errorf("exp: building %s: %w", spec, err)
		}
		m := spectral.Profile(inst.G, opts.Seed)
		rows = append(rows, Table1Row{
			Name:     inst.Name,
			Routers:  m.Routers,
			Radix:    m.Radix,
			Diameter: m.Diameter,
			Dist:     m.AvgDistance,
			Girth:    m.Girth,
			Mu1:      m.Mu1,
		})
	}
	return rows, nil
}

// FprintTable1 renders rows in the paper's Table I format.
func FprintTable1(w io.Writer, rows []Table1Row) {
	fprintf(w, "%-12s %8s %6s %6s %6s %6s %6s\n",
		"Topology", "Routers", "Radix", "Diam.", "Dist.", "Girth", "mu1")
	for _, r := range rows {
		fprintf(w, "%-12s %8d %6d %6d %6.2f %6d %6.2f\n",
			r.Name, r.Routers, r.Radix, r.Diameter, r.Dist, r.Girth, r.Mu1)
	}
}

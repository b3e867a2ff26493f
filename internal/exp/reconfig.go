package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/spectral"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// ReconfigConfig summarizes one fabric configuration's structure.
type ReconfigConfig struct {
	Index   int
	Edges   int
	Lambda2 float64
	// Gap is the spectral gap k − λ₂ of the configuration: the static
	// quality each rewiring step trades away and wins back.
	Gap float64
}

// ReconfigPoint is one (fabric leg, policy, load) measurement under
// the shifting workload.
type ReconfigPoint struct {
	// Fabric is the schedule-axis name: "static" pins configuration 0
	// for the whole run, "rewiring" steps through all K configurations
	// every Period cycles.
	Fabric          string
	Policy          string
	Load            float64
	Delivered       float64 // delivered fraction
	MeanLatency     float64
	P99Latency      int64
	MaxLatency      int64
	MeanHops        float64
	SeveredInFlight int
}

// ReconfigReport is the full exhibit: the configuration spectra plus
// the measured static-vs-rewiring grid.
type ReconfigReport struct {
	Topology     string // the union fabric's instance name
	Routers      int
	Degree       int
	Period       int64
	Steps        int
	UnionLambda2 float64
	Configs      []ReconfigConfig
	Points       []ReconfigPoint
}

// Reconfig runs the live-reconfiguration exhibit: an optically
// rewireable Jellyfish fabric whose K sampled configurations share one
// union topology, driven by a workload whose traffic pattern rotates
// on the same period the fabric rewires on. The static leg activates
// configuration 0 and keeps it for the whole run; the rewiring leg
// steps to the next configuration every Period cycles
// (fault.Rewiring), re-deriving the routing table at each step (one
// routing.Table.Repair of the union's table over the inactive links,
// sharing every unchanged row) while traffic is in flight.
// Both legs run through the timed-schedule path of the simulator with
// the same Workers setting, so their comparison isolates the rewiring
// policy, not the engine.
//
// It reads Period, the cycle count between rewiring steps that the
// traffic rotation shares (1500 quick, 4000 full), Ranks (128, 2048),
// MsgsPerRank (8, 20), Seed, Parallel and Workers (a speed knob only;
// see sweep.Options.Workers).
//
// Every schedule is a pure value and every cell seed derives from a
// stable key, so the report is bit-identical across Parallel values
// and across every Workers value.
func Reconfig(scale Scale, opts Options) (*ReconfigReport, error) {
	opts = opts.withDefaults(scale,
		Options{Ranks: 128, MsgsPerRank: 8, Period: 1500},
		Options{Ranks: 2048, MsgsPerRank: 20, Period: 4000})
	// Each of the K fabric configurations the optical layer switches
	// between is an n-router, k-regular Jellyfish; the rewiring leg
	// takes `steps` steps after the initial activation.
	n, k, nConfigs, conc, steps := 64, 4, 3, 2, 6
	loads := []float64{0.3}
	if scale == Full {
		n, k, nConfigs, conc, steps = 512, 8, 4, 4, 10
		loads = []float64{0.2, 0.5}
	}

	// Sample the K configurations and assemble the union fabric. Each
	// configuration is connected and k-regular; the union keeps every
	// vertex, so it is connected too.
	configs := make([][][2]int32, nConfigs)
	report := &ReconfigReport{
		Routers: n,
		Degree:  k,
		Period:  opts.Period,
		Steps:   steps,
	}
	unionSet := make(map[[2]int32]struct{})
	for i := range configs {
		seed := runner.DeriveSeed(opts.Seed, fmt.Sprintf("reconfig/config/%d", i))
		inst, err := topo.Jellyfish(n, k, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: reconfig configuration %d: %w", i, err)
		}
		edges := inst.G.Edges()
		configs[i] = edges
		for _, e := range edges {
			unionSet[e] = struct{}{}
		}
		sp := spectral.Analyze(inst.G, spectral.Options{Seed: opts.Seed})
		report.Configs = append(report.Configs, ReconfigConfig{
			Index:   i,
			Edges:   len(edges),
			Lambda2: sp.SecondMax,
			Gap:     float64(k) - sp.SecondMax,
		})
	}
	unionEdges := make([][2]int32, 0, len(unionSet))
	for e := range unionSet {
		unionEdges = append(unionEdges, e)
	}
	sort.Slice(unionEdges, func(i, j int) bool {
		if unionEdges[i][0] != unionEdges[j][0] {
			return unionEdges[i][0] < unionEdges[j][0]
		}
		return unionEdges[i][1] < unionEdges[j][1]
	})
	union := graph.FromEdges(n, unionEdges)
	report.Topology = fmt.Sprintf("JellyfishUnion(n=%d,k=%d,K=%d)", n, k, nConfigs)
	report.UnionLambda2 = spectral.Analyze(union, spectral.Options{Seed: opts.Seed}).SecondMax

	// Both legs are planned rewiring sequences over the same union —
	// the static leg simply never takes a step — so both run the
	// timed-schedule path and differ only in the schedule.
	static, err := fault.Rewiring(configs, opts.Period, 0)
	if err != nil {
		return nil, err
	}
	rewiring, err := fault.Rewiring(configs, opts.Period, steps)
	if err != nil {
		return nil, err
	}
	g := &sweep.Grid{
		Instances: []sweep.Instance{{
			Name:          report.Topology,
			Inst:          &topo.Instance{Name: report.Topology, G: union},
			Concentration: conc,
		}},
		// The intact union runs every configuration's links at once — a
		// fabric no optical layer can realize — so only the scheduled
		// legs are measured.
		OmitIntact: true,
		Schedules: []sweep.ScheduleAxis{
			{Name: "static", Schedule: static},
			{Name: "rewiring", Schedule: rewiring},
		},
		Policies:      []routing.Policy{routing.Minimal, routing.UGALL},
		Patterns:      []traffic.Pattern{traffic.Random}, // label only: ShiftPatterns drives traffic
		Loads:         loads,
		Measure:       sweep.MeasureLoad,
		Ranks:         opts.Ranks,
		MsgsPerRank:   opts.MsgsPerRank,
		ShiftPeriod:   opts.Period,
		ShiftPatterns: []traffic.Pattern{traffic.Transpose, traffic.BitShuffle, traffic.BitReverse},
		Seed:          opts.Seed,
		Keys: sweep.Keys{CellKey: func(c *sweep.Cell) string {
			return fmt.Sprintf("reconfig/%s/%s/%d/%s/%v",
				c.Topology, c.Schedule, c.Trial, c.Policy, c.Load)
		}},
	}
	err = g.Run(context.Background(), sweep.Options{Parallel: opts.Parallel, Workers: opts.Workers}, func(res sweep.Result) error {
		if res.Err != nil {
			return res.Err
		}
		st := res.Stats
		report.Points = append(report.Points, ReconfigPoint{
			Fabric:          res.Schedule,
			Policy:          res.Policy.String(),
			Load:            res.Load,
			Delivered:       st.DeliveredFraction(),
			MeanLatency:     st.MeanLatency,
			P99Latency:      st.P99Latency,
			MaxLatency:      st.MaxLatency,
			MeanHops:        st.MeanHops,
			SeveredInFlight: st.SeveredInFlight,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// FprintReconfig renders the exhibit.
func FprintReconfig(w io.Writer, r *ReconfigReport) {
	fprintf(w, "%s: %d-regular fabric, rewiring every %d cycles for %d steps (traffic shifts on the same period)\n",
		r.Topology, r.Degree, r.Period, r.Steps)
	fprintf(w, "union λ₂ = %.4f\n", r.UnionLambda2)
	for _, c := range r.Configs {
		fprintf(w, "  config %d: %4d links, λ₂ = %.4f, gap = %.4f\n", c.Index, c.Edges, c.Lambda2, c.Gap)
	}
	fprintf(w, "%-10s %-8s %5s %10s %11s %9s %9s %9s %8s\n",
		"Fabric", "Policy", "Load", "Delivered", "MeanLat", "P99Lat", "MaxLat", "MeanHops", "Severed")
	for _, p := range r.Points {
		fprintf(w, "%-10s %-8s %5.2f %10.4f %11.1f %9d %9d %9.3f %8d\n",
			p.Fabric, p.Policy, p.Load, p.Delivered, p.MeanLatency, p.P99Latency, p.MaxLatency, p.MeanHops, p.SeveredInFlight)
	}
}

package spectralfly

import (
	"context"
	"fmt"

	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// Routing policies (§V).
const (
	// RoutingMinimal forwards along uniformly random shortest paths.
	RoutingMinimal = routing.Minimal
	// RoutingValiant routes via a random intermediate router.
	RoutingValiant = routing.Valiant
	// RoutingUGAL chooses adaptively using local queue state (UGAL-L).
	RoutingUGAL = routing.UGALL
	// RoutingUGALGlobal uses sampled whole-path backlog (UGAL-G).
	RoutingUGALGlobal = routing.UGALG
)

// Traffic patterns (§VI-C).
const (
	PatternRandom     = traffic.Random
	PatternShuffle    = traffic.BitShuffle
	PatternReverse    = traffic.BitReverse
	PatternTranspose  = traffic.Transpose
	PatternComplement = traffic.BitComplement
)

// SimConfig configures a simulation of a Network. The model's timing
// is fixed (simnet.PacketFlits, RouterLatency and LinkLatency: 16-flit
// packets, 5-cycle routers, 10-cycle wires) and its queues are
// unbounded.
type SimConfig struct {
	// Concentration is the number of endpoints per router (0 means 1;
	// negative is an error).
	Concentration int
	// Policy is the routing algorithm (default RoutingMinimal).
	Policy routing.Policy
	// Seed is the base seed, as in NewSweep(…).Seed(Seed) (but zero is
	// not read as 1): each run's seed derives from it and its cell key.
	Seed int64
	// Workers is the number of router shards a run is split into and
	// simulated in parallel (0 and 1 mean one). It is a speed knob
	// only: statistics are identical for every value, MemoryBytes
	// aside. Runs shards cannot express (UGAL-G, tiny topologies) use
	// fewer shards. See DESIGN.md §10.
	Workers int
}

// SimStats re-exports the simulator statistics.
type SimStats = simnet.Stats

// Sim is a ready-to-run simulation of one network.
type Sim struct {
	inst sweep.Instance
	cfg  SimConfig
	r    *runner.Runner
}

// Simulate prepares a simulator for the network; reuse the Sim for
// multiple runs, which share one routing table (dense rows up to 4,096
// routers, packed above; see DESIGN.md §7). Each run measures exactly
// what the matching one-cell NewSweep measures. A negative
// concentration or a policy that is none of the Routing* constants is
// an error.
func (n *Network) Simulate(cfg SimConfig) (*Sim, error) {
	if !cfg.Policy.Valid() {
		return nil, fmt.Errorf("spectralfly: unknown routing policy %d", int(cfg.Policy))
	}
	if cfg.Concentration < 0 {
		return nil, fmt.Errorf("spectralfly: concentration %d, want >= 1 (0 means 1)", cfg.Concentration)
	}
	return &Sim{inst: n.instance(max(cfg.Concentration, 1)), cfg: cfg, r: runner.New(1)}, nil
}

// Endpoints returns the number of simulated endpoints.
func (s *Sim) Endpoints() int { return s.inst.Endpoints() }

// Diameter returns the network diameter from the routing table.
func (s *Sim) Diameter() int { return s.r.Table(s.inst.Inst.G).Diameter() }

// VirtualChannels returns the deadlock-free VC budget for the
// configured policy (§V-A).
func (s *Sim) VirtualChannels() int {
	return routing.VirtualChannels(s.cfg.Policy, s.Diameter())
}

// RunUniform is RunPattern with uniform random traffic over every
// endpoint, msgsPerEP messages each. A load outside (0, 1], NaN
// included, or a negative message count is an error. For a load sweep
// or a saturation search, use NewSweep.
func (s *Sim) RunUniform(load float64, msgsPerEP int) (SimStats, error) {
	return s.RunPattern(PatternRandom, s.Endpoints(), load, msgsPerEP)
}

// RunPattern injects one of the §VI-C synthetic patterns over a rank
// space mapped onto the endpoints. A load outside (0, 1], NaN
// included, a negative message count, a pattern that is none of the
// Pattern* constants, or a bit pattern on a rank count that is not a
// power of two is an error.
func (s *Sim) RunPattern(pat traffic.Pattern, ranks int, load float64, msgsPerRank int) (SimStats, error) {
	return s.run(sweep.Grid{Patterns: []traffic.Pattern{pat}, Loads: []float64{load}, Ranks: ranks, MsgsPerRank: msgsPerRank})
}

// RunMotif executes an Ember-style motif (§VI-D) over a rank space
// mapped onto the endpoints and returns aggregate statistics; the
// makespan is the paper's comparison metric.
func (s *Sim) RunMotif(m traffic.Motif, ranks int) (SimStats, error) {
	return s.run(sweep.Grid{Measure: sweep.MeasureMotif, Motifs: []traffic.Motif{m}, Ranks: ranks})
}

// run measures g's one cell on this Sim's network, policy and seed.
func (s *Sim) run(g sweep.Grid) (SimStats, error) {
	g.Instances = []sweep.Instance{s.inst}
	g.Policies = []routing.Policy{s.cfg.Policy}
	g.Seed = s.cfg.Seed
	res, err := g.Collect(context.Background(), sweep.Options{Runner: s.r, Workers: s.cfg.Workers})
	if err != nil {
		return SimStats{}, err
	}
	return res[0].Stats, res[0].Err
}

// Motif constructors (re-exported from internal/traffic).
type (
	// Halo3D26 is the 26-neighbor stencil halo exchange.
	Halo3D26 = traffic.Halo3D26
	// Sweep3D is the diagonal wavefront sweep.
	Sweep3D = traffic.Sweep3D
	// FFT is the sub-communicator all-to-all (balanced/unbalanced).
	FFT = traffic.FFT
)

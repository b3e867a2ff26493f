package spectralfly

import (
	"fmt"
	"math/rand"

	"repro/internal/routing"
	"repro/internal/simnet"
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
	// Seed drives all randomness.
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
	net   *Network
	cfg   SimConfig
	table *routing.Table
	nw    *simnet.Network
}

// Simulate prepares a simulator for the network, building the routing
// table once (dense rows up to 4,096 routers, packed above; see
// DESIGN.md §7); reuse the Sim for multiple runs. Invalid
// configurations (a negative concentration, a policy that is none of
// the Routing* constants, or a dead-router mask that does not match
// the graph) surface as errors.
func (n *Network) Simulate(cfg SimConfig) (*Sim, error) {
	if !cfg.Policy.Valid() {
		return nil, fmt.Errorf("spectralfly: unknown routing policy %d", int(cfg.Policy))
	}
	table := routing.NewTable(n.G)
	nw, err := simnet.New(simnet.Config{Topo: n.G, Concentration: cfg.Concentration}, table)
	if err != nil {
		return nil, err
	}
	nw.SetPolicy(cfg.Policy)
	nw.SetSeed(cfg.Seed)
	nw.SetWorkers(cfg.Workers)
	if err := nw.SetDeadRouters(n.failedRouters); err != nil {
		return nil, err
	}
	return &Sim{net: n, cfg: cfg, table: table, nw: nw}, nil
}

// Endpoints returns the number of simulated endpoints.
func (s *Sim) Endpoints() int { return s.nw.Endpoints() }

// Diameter returns the network diameter from the routing table.
func (s *Sim) Diameter() int { return s.table.Diameter() }

// VirtualChannels returns the deadlock-free VC budget for the
// configured policy (§V-A).
func (s *Sim) VirtualChannels() int {
	return routing.VirtualChannels(s.cfg.Policy, s.table.Diameter())
}

// RunUniform injects uniform random traffic at the offered load with
// msgsPerEP messages per endpoint and returns the run statistics. A
// load outside (0, 1], NaN included, or a negative message count is
// an error. For a load sweep or a saturation search, use NewSweep.
func (s *Sim) RunUniform(load float64, msgsPerEP int) (SimStats, error) {
	if err := checkRun(load, msgsPerEP); err != nil {
		return SimStats{}, err
	}
	nep := s.nw.Endpoints()
	return s.nw.RunLoad(func(_ int, _ int64, rng *rand.Rand) int {
		return rng.Intn(nep)
	}, load, msgsPerEP), nil
}

// checkRun rejects an offered load outside (0, 1] (NaN fails too) and
// a negative message count.
func checkRun(load float64, msgs int) error {
	if !(load > 0 && load <= 1) {
		return fmt.Errorf("spectralfly: offered load %v out of (0,1]", load)
	}
	if msgs < 0 {
		return fmt.Errorf("spectralfly: message count %d, want >= 0", msgs)
	}
	return nil
}

// RunPattern injects one of the §VI-C synthetic patterns over a
// power-of-two rank space mapped onto the endpoints. A load outside
// (0, 1], NaN included, a negative message count, a pattern that is
// none of the Pattern* constants, or a bit pattern on a rank count
// that is not a power of two is an error.
func (s *Sim) RunPattern(pat traffic.Pattern, ranks int, load float64, msgsPerRank int) (SimStats, error) {
	if err := checkRun(load, msgsPerRank); err != nil {
		return SimStats{}, err
	}
	if !pat.Valid() {
		return SimStats{}, fmt.Errorf("spectralfly: unknown traffic pattern %d", int(pat))
	}
	if pat != traffic.Random && !traffic.PowerOfTwo(ranks) {
		return SimStats{}, fmt.Errorf("spectralfly: pattern %s needs a power-of-two rank count, got %d", pat, ranks)
	}
	mp, err := traffic.NewMapping(ranks, s.nw.Endpoints(), s.cfg.Seed)
	if err != nil {
		return SimStats{}, err
	}
	return s.nw.RunLoad(mp.PatternEndpoints(pat, ranks), load, msgsPerRank), nil
}

// RunMotif executes an Ember-style motif (§VI-D) over a rank space
// mapped onto the endpoints and returns aggregate statistics; the
// makespan is the paper's comparison metric.
func (s *Sim) RunMotif(m traffic.Motif, ranks int) (SimStats, error) {
	if err := traffic.Validate(m, ranks); err != nil {
		return SimStats{}, err
	}
	mp, err := traffic.NewMapping(ranks, s.nw.Endpoints(), s.cfg.Seed)
	if err != nil {
		return SimStats{}, err
	}
	return s.nw.RunBatches(traffic.MapRounds(m, mp))
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

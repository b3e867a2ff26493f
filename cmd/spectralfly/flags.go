package main

import (
	"flag"
	"os"
	"time"

	"repro/internal/exp"
)

// cliFlags holds the raw flag values shared by every subcommand.
type cliFlags struct {
	full    bool
	jsonOut bool
	// sim holds the scalar exhibit flags (-maxpq, -maxn, -ranks, -msgs,
	// -seed, -parallel, -workers, -trials, -period, -layout), bound in
	// place; dispatch adds the list flags -classes, -loads, -fractions
	// and -rungs.
	sim exp.Options

	// Profiling outputs.
	cpuprofile string
	memprofile string

	// List flags of the exhibits (-loads is with the sweep flags).
	classes   string
	fractions string
	rungs     string

	// Generic sweep grid flags.
	topos    string
	conc     int
	policies string
	patterns string
	motifs   string
	loads    string
	faults   string
	measure  string
	intact   bool

	// Distributed fabric flags (sweep / serve / submit).
	addr      string
	coord     string
	cacheOn   bool
	cacheDir  string
	chunk     int
	heartbeat time.Duration
}

// parseFlags parses the flag set for one subcommand invocation.
func parseFlags(cmd string, args []string) cliFlags {
	var fl cliFlags
	if err := newFlagSet(cmd, &fl).Parse(args); err != nil {
		os.Exit(2)
	}
	return fl
}

// newFlagSet registers every flag of one subcommand invocation, bound
// to fl.
func newFlagSet(cmd string, fl *cliFlags) *flag.FlagSet {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	fs.BoolVar(&fl.full, "full", false, "run the paper's full-scale configuration")
	fs.StringVar(&fl.classes, "classes", "", "comma-separated Table I size classes (0-4) for table1, fig3, fig4-rawbw and fig5 (fig5: the paper uses 1 and 3)")
	fs.Int64Var(&fl.sim.MaxPQ, "maxpq", 0, "p,q bound for the fig4-feasible and fig4-normbw LPS enumerations (0 = scale default)")
	fs.IntVar(&fl.sim.MaxN, "maxn", 0, "vertex cap for the fig4-normbw partitioner sweep (0 = 4000)")
	fs.IntVar(&fl.sim.Ranks, "ranks", 0, "override MPI rank count for simulations (interference: the aggressor; the victim is a quarter of it)")
	fs.IntVar(&fl.sim.MsgsPerRank, "msgs", 0, "override messages per rank for simulations")
	fs.Int64Var(&fl.sim.Seed, "seed", 0, "override base seed")
	fs.IntVar(&fl.sim.Parallel, "parallel", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&fl.sim.Workers, "workers", 0, "intra-run simulator shards per cell (0/1 = one shard; a speed knob only, results are identical for every value; with -parallel 0 the cell pool shrinks to GOMAXPROCS/workers)")
	fs.StringVar(&fl.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&fl.memprofile, "memprofile", "", "write a pprof heap profile to this file at exit")
	fs.BoolVar(&fl.jsonOut, "json", false, "emit results as JSON instead of tables")
	fs.StringVar(&fl.fractions, "fractions", "", "comma-separated failure fractions for resilience (e.g. 0.05,0.1,0.2), or the single one of scale")
	fs.IntVar(&fl.sim.Trials, "trials", 0, "failure plans per (fault,fraction) cell for resilience and sweep (0 = default)")
	fs.Int64Var(&fl.sim.Period, "period", 0, "rewiring / traffic-shift period in cycles for reconfig (0 = scale default)")
	fs.StringVar(&fl.rungs, "rungs", "", "comma-separated scale-ladder rungs for scale (0-2; default all)")
	fs.StringVar(&fl.topos, "topos", "", "sweep topology axis, e.g. lps(11,7),sf(9),jf(512,12,s=1)")
	fs.IntVar(&fl.conc, "conc", 1, "endpoints per router for sweep topologies (>= 1)")
	fs.StringVar(&fl.policies, "policies", "", "sweep routing-policy axis, e.g. minimal,ugal-l")
	fs.StringVar(&fl.patterns, "patterns", "", "sweep pattern axis, e.g. random,bit-shuffle")
	fs.StringVar(&fl.motifs, "motifs", "", "sweep motif axis: halo3d,sweep3d,fft,fft-unbalanced")
	fs.StringVar(&fl.loads, "loads", "", "offered-load axis of sweep, fig6/7/8, resilience and interference (its aggressor), e.g. 0.2,0.5")
	fs.StringVar(&fl.faults, "faults", "", "sweep fault axis, e.g. links:0.05,regions:0.1:16")
	fs.StringVar(&fl.measure, "measure", "", "sweep measure: load (default), motif or saturation")
	fs.StringVar(&fl.sim.Layout, "layout", "", "interference: machine-room placement mode for per-link wire latencies (qap, faq or sequential; default qap)")
	fs.BoolVar(&fl.intact, "intact", true, "include the intact baseline cells in a fault sweep")
	fs.StringVar(&fl.addr, "addr", "127.0.0.1:8077", "serve: listen address for the coordinator")
	fs.StringVar(&fl.coord, "coord", "", "submit: coordinator base URL, e.g. http://127.0.0.1:8077")
	fs.BoolVar(&fl.cacheOn, "cache", false, "enable the content-addressed result cache at its default directory")
	fs.StringVar(&fl.cacheDir, "cache-dir", "", "result cache directory (implies -cache; default ~/.cache/spectralfly)")
	fs.IntVar(&fl.chunk, "chunk", 0, "serve: cells per claimed worker range (0 = auto)")
	fs.DurationVar(&fl.heartbeat, "heartbeat", 0, "serve: silence after which a worker's ranges are re-queued (0 = 10s)")
	return fs
}

// Package exp contains the experiment drivers that regenerate every
// table and figure of the SpectralFly paper. Each driver returns plain
// row structs and has a Fprint helper producing the same rows/series
// the paper reports; cmd/spectralfly and the root benchmarks both call
// into this package so the numbers in EXPERIMENTS.md, the CLI output
// and the benchmark corpus always agree.
//
// Every exhibit driver has one signature, func(Scale, Options) (T,
// error): Quick runs class-1-sized instances suitable for CI and
// benchmarks, Full runs the paper's exact configurations (minutes of
// CPU), and Options carries the few values a caller may set.
package exp

import (
	"fmt"
	"io"
)

// Scale selects experiment size.
type Scale int

const (
	// Quick uses small instances with the same structure (CI-friendly).
	Quick Scale = iota
	// Full uses the paper's exact configurations.
	Full
)

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// BaseSeed is the default seed for all randomized experiment
// components; every driver derives per-trial seeds from it so results
// are reproducible run to run.
const BaseSeed int64 = 20220214 // arXiv v2 date of the paper

// Options is the one job configuration of every exhibit driver. Each
// driver's doc comment names the fields it reads; a zero field selects
// that driver's own default at the given scale, so the zero value runs
// every exhibit as published.
type Options struct {
	// Classes selects Table I size classes (0-4) by index.
	Classes []int
	// MaxPQ bounds p and q of the LPS enumerations.
	MaxPQ int64
	// MaxN caps the vertex count of the partitioned LPS instances.
	MaxN int
	// Ranks is the MPI job size (a power of two for the bit patterns;
	// §VI-C uses 8192).
	Ranks int
	// MsgsPerRank is the number of messages each rank (each endpoint,
	// for uniform traffic) generates in the open-loop runs.
	MsgsPerRank int
	// Loads is the offered-load axis (§VI-C uses .1 .2 .3 .5 .6 .7).
	Loads []float64
	// Fractions is the failure-fraction axis.
	Fractions []float64
	// Trials is the number of independent failure plans per
	// (kind, fraction) cell.
	Trials int
	// Period is the cycle count between rewiring steps.
	Period int64
	// Layout selects the machine-room placement driving per-link wire
	// latencies ("qap", "faq" or "sequential").
	Layout string
	// Rungs selects scale-ladder rungs by index.
	Rungs []int
	Seed  int64
	// Parallel is the worker-pool size for the sweep engine: 0 sizes it
	// by GOMAXPROCS, 1 forces the serial engine. Results are identical
	// for every value (per-cell seeds are derived from stable cell keys
	// and results are reassembled in cell order).
	Parallel int
	// Workers is each cell's intra-run simulator shard count, a speed
	// knob only; see sweep.Options.Workers for the pool-splitting
	// contract.
	Workers int
}

// withDefaults fills every zero field of o from a driver's default at
// the given scale (quick or full), and a zero Seed with BaseSeed. A nil
// slice is zero; an empty non-nil one is kept, so the grid rejects it.
func (o Options) withDefaults(scale Scale, quick, full Options) Options {
	d := quick
	if scale == Full {
		d = full
	}
	if o.Classes == nil {
		o.Classes = d.Classes
	}
	if o.MaxPQ == 0 {
		o.MaxPQ = d.MaxPQ
	}
	if o.MaxN == 0 {
		o.MaxN = d.MaxN
	}
	if o.Ranks == 0 {
		o.Ranks = d.Ranks
	}
	if o.MsgsPerRank == 0 {
		o.MsgsPerRank = d.MsgsPerRank
	}
	if o.Loads == nil {
		o.Loads = d.Loads
	}
	if o.Fractions == nil {
		o.Fractions = d.Fractions
	}
	if o.Trials == 0 {
		o.Trials = d.Trials
	}
	if o.Period == 0 {
		o.Period = d.Period
	}
	if o.Layout == "" {
		o.Layout = d.Layout
	}
	if o.Seed == 0 {
		o.Seed = BaseSeed
	}
	return o
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, format, args...)
}

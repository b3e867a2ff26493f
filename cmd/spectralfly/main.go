// Command spectralfly regenerates every table and figure of the
// SpectralFly paper's evaluation. Each exhibit is one subcommand, listed
// in order by the exhibits table in commands.go; running spectralfly
// with no arguments prints that list with every flag (DESIGN.md §3 maps
// the exhibits to the paper). Beyond the exhibits, `all` runs every
// exhibit except scale, `sweep` runs a declarative grid over any
// topology set, `serve` and `submit` distribute one grid across worker
// processes, and `version` prints the code version stamp.
//
// Without -full each experiment runs a scaled-down configuration with
// the same structure (seconds instead of minutes); -full reproduces the
// paper's exact instance sizes. Simulation sweeps execute on the
// parallel run scheduler (internal/runner): -parallel N sizes the
// worker pool (0 = GOMAXPROCS, 1 = serial) without changing any
// result. -workers N additionally shards each simulation across N
// router partitions simulated in parallel, again without changing any
// result (with -parallel 0 the cell pool shrinks to GOMAXPROCS/N so
// cells × shards never oversubscribe the machine). -cpuprofile/-memprofile write
// pprof profiles of the run. -json emits the result rows as JSON (one
// document per exhibit, stamped with the code version) for scripted
// sweeps.
//
// Sweeps are a distributed, resumable fabric (DESIGN.md §11): -cache
// / -cache-dir answer cells from a content-addressed result store
// (re-running an identical grid against a warm cache simulates
// nothing and reproduces the output byte for byte; every cell is
// stored before it is emitted, so a killed sweep re-run with the same
// cache continues where it stopped), and serve/submit shard one grid
// across worker processes over HTTP/JSON with work stealing and
// heartbeat-based failover — with output byte-identical to the
// single-process run.
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "version" {
		fmt.Println(version.Stamp())
		return
	}
	fl := parseFlags(cmd, os.Args[2:])
	stopProfiles, err := startProfiles(fl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := dispatch(cmd, fl)
	// os.Exit skips deferred calls, so the profile finalizers run
	// explicitly on every path that reaches here (error exits inside
	// dispatch are reported through the return code).
	stopProfiles()
	os.Exit(code)
}

// dispatch runs the subcommand and returns the process exit code.
func dispatch(cmd string, fl cliFlags) int {
	scale := exp.Quick
	if fl.full {
		scale = exp.Full
	}
	opts := fl.sim
	opts.Classes = parseClasses(fl.classes)
	opts.Loads = parseFractions(fl.loads)
	opts.Fractions = parseFractions(fl.fractions)
	opts.Rungs = parseClasses(fl.rungs)
	run := func(e exhibit) int {
		start := time.Now()
		if !fl.jsonOut {
			fmt.Printf("== %s (%s scale) ==\n", e.name, scale)
		}
		result, err := e.run(scale, opts)
		if err != nil {
			report(e.name, err)
			return 1
		}
		if fl.jsonOut {
			if err := encodeJSON(os.Stdout, e.name, scale, result); err != nil {
				report(e.name, err)
				return 1
			}
			return 0
		}
		e.print(os.Stdout, result)
		fmt.Printf("-- %s done in %v --\n\n", e.name, time.Since(start).Round(time.Millisecond))
		return 0
	}

	// serve emits the same "sweep" exhibit as a single-process run:
	// with -json, a distributed grid's document is byte-identical to
	// the sweep subcommand's.
	sweepExhibit := func(f func(cliFlags) (any, error)) exhibit {
		return exhibit{
			name:  "sweep",
			run:   func(exp.Scale, exp.Options) (any, error) { return f(fl) },
			print: func(w io.Writer, rows any) { printSweep(w, rows.([]sweepRow)) },
		}
	}
	switch cmd {
	case "all":
		for _, e := range exhibits {
			if !e.explicit && run(e) != 0 {
				return 1
			}
		}
		return 0
	case "sweep":
		return run(sweepExhibit(runSweep))
	case "serve":
		return run(sweepExhibit(runServe))
	case "submit":
		if err := runSubmit(fl); err != nil {
			fmt.Fprintf(os.Stderr, "submit: %v\n", err)
			return 1
		}
		return 0
	}
	for _, e := range exhibits {
		if e.name == cmd {
			return run(e)
		}
	}
	usage()
	return 2
}

// report prints an exhibit's error to stderr under the exhibit name,
// unless the message already starts with it: the sweep and serve
// exhibits are named "sweep", like the prefix of internal/sweep's own
// errors.
func report(name string, err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, name+":") {
		msg = name + ": " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
}

func parseFractions(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad fraction %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseClasses(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad class %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func usage() { fmt.Fprint(os.Stderr, usageText()) }

// usageText lists every subcommand and every flag parseFlags registers.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: spectralfly <command> [flags]\n\ncommands:\n")
	for _, e := range exhibits {
		fmt.Fprintf(&b, "  %-14s %s\n", e.name, e.help)
	}
	b.WriteString(`  sweep          declarative cross-product grid over any topology set:
                 -topos lps(11,7),sf(9),jf(512,12,s=1) [-conc N]
                 -measure load|motif|saturation [-policies minimal,ugal-l]
                 [-patterns random,transpose] [-loads 0.2,0.5]
                 [-motifs halo3d,fft] [-faults links:0.05,regions:0.1:16]
                 [-trials N] [-intact=false]
  serve          coordinate a sweep grid for submit workers: same grid
                 flags as sweep, plus [-addr host:port] [-chunk N]
                 [-heartbeat D]; cells already in the cache are served
                 from it (a warm grid finishes with zero workers), and
                 the finished grid prints exactly what sweep would
  submit         join a coordinator as a worker: -coord http://host:port
                 [-parallel N] [-cache-dir D]; refuses on version or
                 grid-fingerprint skew
  version        print the code version stamp (also in -json documents)
  all            run every exhibit in order (except scale: opt in explicitly)

flags: -full (paper-scale), -classes 0,1 (table1, fig3, fig4-rawbw,
         fig5), -maxpq N, -maxn N (fig4 LPS enumerations),
       -ranks N (interference: the aggressor, victim a quarter of it),
       -msgs N, -seed N, -parallel N (0=GOMAXPROCS, 1=serial),
       -workers N (intra-run simulator shards; speed only, 0/1=one),
       -loads 0.2,0.5 (load axis of fig6/7/8, resilience, interference),
       -fractions 0.05,0.1 -trials N (resilience fault grid; scale
         takes a single fraction),
       -period N (reconfig rewiring period),
       -layout qap|faq|sequential (interference wire model),
       -rungs 0,1,2 (scale sweep; packed routing tables),
       -cache -cache-dir D (content-addressed result cache; a killed
         sweep re-run with it replays every stored cell),
       -cpuprofile f -memprofile f (write pprof profiles),
       -json (emit JSON result documents)
`)
	return b.String()
}

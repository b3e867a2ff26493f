// Command perfbench is the repository benchmark. It runs one seeded
// workload through the entry points users run — sweep.Grid on a shared
// runner.Runner, and the service coordinator and workers behind
// `spectralfly serve`/`submit` over loopback — checks every result,
// and prints each metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}
//
// With --trace 0 it carries the end-to-end metrics; with --trace 1 the
// run also records spans around the benchmark's calls into each layer
// and reports the per-layer metrics derived from them. Build and run it
// from the repository root:
//
//	bash perfbench/run.sh --workload paper-load --seed 1 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/runner"
	"repro/internal/sweep"
	"repro/internal/version"
)

// outDir holds caches, traces and ledgers, relative to the directory
// the benchmark runs in (the repository root).
const outDir = ".bench_build"

// Each workload sets itself up from scratch at least setupRuns times
// before the timed passes, and more (up to setupMaxRuns) until
// setupMinTime has passed, so a cheap set-up's median rests on more
// samples. setup_s is the median.
const (
	setupRuns    = 3
	setupMaxRuns = 15
	setupMinTime = 2 * time.Second
)

// minReps is the fewest timed repetitions a run makes, however short
// --seconds is.
const minReps = 3

// workload is one seeded input set. setup builds everything before the
// first timed cell; pass runs the timed unit once; warm replays it
// from a warm result cache; panel runs the per-layer probes of a
// traced run.
type workload interface {
	setup(b *bench, parent int) error
	pass(b *bench, parent int) (wall float64, rows []sweep.Result, err error)
	warm(b *bench, rows []sweep.Result) (float64, error)
	panel(b *bench, rows []sweep.Result) error
	// freshSetup reports whether every pass consumes its own setup.
	freshSetup() bool
}

var workloads = map[string]func() workload{
	"paper-load":      newPaperLoad,
	"churn-repair":    newChurnRepair,
	"shard-12k":       newShard12k,
	"fabric-loopback": newFabricLoopback,
}

// bench carries one run's settings, tracer and outcome.
type bench struct {
	workload string
	seed     int64
	gridSeed int64 // the Grid.Seed every workload derives from --seed
	window   time.Duration
	traced   bool
	nproc    int
	t        *tracer

	attempted, failed int
	problems          []string

	e2e        map[string]float64
	layer      map[string]float64
	samples    map[string][]float64 // per-repetition times behind the medians
	rowsDigest string
}

// expect records one checked operation; a false ok is a failure.
func (b *bench) expect(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
	}
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		gridSeed: runner.DeriveSeed(*seed, "perfbench/"+*name),
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		nproc:    runtime.NumCPU(),
		t:        newTracer(),
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		samples:  map[string][]float64{},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := measure(b, mk()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !report(b) {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure drives one workload: its set-ups (plus one per later pass
// for a workload whose passes consume them), timed passes until the
// window closes, the warm replay, and on a traced run the layer panel.
// In a traced run the passes alternate untraced and traced, so
// trace.overhead_frac compares the two.
func measure(b *bench, w workload) error {
	var setups, walls, tracedWalls []float64
	setup := func() error {
		id := b.t.start("setup", 0)
		t0 := time.Now()
		err := w.setup(b, id)
		setups = append(setups, time.Since(t0).Seconds())
		b.t.end(id)
		return err
	}
	b.t.on.Store(b.traced)
	t0 := time.Now()
	for i := 0; i < setupRuns || (i < setupMaxRuns && time.Since(t0) < setupMinTime); i++ {
		runtime.GC()
		if err := setup(); err != nil {
			return err
		}
	}
	var first []sweep.Result
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < b.window; rep++ {
		traced := b.traced && rep%2 == 1
		b.t.on.Store(traced)
		if w.freshSetup() && rep > 0 {
			if err := setup(); err != nil {
				return err
			}
		}
		id := b.t.start("pass", 0)
		wall, rows, err := w.pass(b, id)
		b.t.end(id)
		if err != nil {
			return err
		}
		if traced {
			tracedWalls = append(tracedWalls, wall)
		} else {
			walls = append(walls, wall)
		}
		checkRows(b, rows)
		if first == nil {
			first = rows
		} else {
			b.expect(sameRows(first, rows), "pass %d results differ from pass 0", rep)
		}
	}
	b.t.on.Store(b.traced)
	warm, err := w.warm(b, first)
	if err != nil {
		return err
	}
	b.samples["setup_s"], b.samples["wall_s"] = setups, walls
	b.e2e["setup_s"] = median(setups)
	b.e2e["wall_s"] = median(walls)
	b.e2e["warm_s"] = warm
	b.e2e["peak_rss_mb"] = peakRSSMB()
	b.e2e["sim_latency_cycles"] = meanLatency(first)
	b.rowsDigest = digestRows(first)
	if !b.traced {
		return nil
	}
	if err := w.panel(b, first); err != nil {
		return err
	}
	b.layer["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
	return nil
}

// report prints every metric with its unit, the ledger line, and the
// final JSON result; it returns whether every check passed.
func report(b *bench) bool {
	metrics := map[string]map[string]any{}
	var names []string
	if b.traced {
		for _, m := range layerMetrics {
			v, ok := b.layer[m.name]
			b.expect(ok, "per-layer metric %s was not measured", m.name)
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
			names = append(names, m.name)
		}
	} else {
		for _, m := range endToEndMetrics {
			metrics[m.name] = map[string]any{"value": b.e2e[m.name], "unit": m.unit}
			names = append(names, m.name)
		}
	}
	failFrac := float64(b.failed) / float64(max(b.attempted, 1))
	fmt.Printf("perfbench %s seed=%d trace=%v\n", b.workload, b.seed, b.traced)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, metrics[n]["value"], metrics[n]["unit"])
	}
	if b.traced {
		fmt.Println("  (each per-layer metric should move, on its workloads:)")
		for _, m := range layerMetrics {
			fmt.Printf("  %-34s -> %s on %s\n", m.name, m.moves, m.on)
		}
	}
	fmt.Printf("  %-34s %14.6g frac (%d/%d)\n", "fail_frac", failFrac, b.failed, b.attempted)
	for _, p := range b.problems {
		fmt.Println("  FAILED:", p)
	}

	host, _ := os.Hostname()
	ledger := map[string]any{
		"workload":    b.workload,
		"seed":        b.seed,
		"trace":       b.traced,
		"host":        host,
		"nproc":       b.nproc,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"version":     version.Stamp(),
		"rows_sha256": b.rowsDigest,
		"attempted":   b.attempted,
		"failed":      b.failed,
		"fail_frac":   failFrac,
		"metrics":     metrics,
		"samples":     b.samples,
	}
	lb, _ := json.Marshal(ledger)
	fmt.Printf("ledger %s\n", lb)
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, btoi(b.traced)))
	if err := os.WriteFile(stem+".ledger.json", lb, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write ledger:", err)
	}
	if b.traced {
		if err := b.t.write(stem + ".trace.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
		}
	}

	correct := b.failed == 0
	out, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(b.attempted, 1),
		"failed":    b.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(out))
	return correct
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// checkRows applies the per-cell invariants: no cell failed, every
// offered message was delivered or dropped, and intact cells (no fault
// plan, no schedule) dropped nothing.
func checkRows(b *bench, rows []sweep.Result) {
	for _, r := range rows {
		st := r.Stats
		switch {
		case r.Err != nil:
			b.expect(false, "cell %d: %v", r.Index, r.Err)
		case st.Offered != st.Delivered+st.Dropped:
			b.expect(false, "cell %d: offered %d != delivered %d + dropped %d", r.Index, st.Offered, st.Delivered, st.Dropped)
		case r.Fault == "none" && r.Schedule == "" && st.Dropped != 0:
			b.expect(false, "cell %d: intact cell dropped %d", r.Index, st.Dropped)
		case st.Offered == 0:
			b.expect(false, "cell %d: offered nothing", r.Index)
		default:
			b.expect(true, "")
		}
	}
}

// sameRows reports whether two result lists are identical cell by cell.
func sameRows(a, b []sweep.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cell != b[i].Cell || !a[i].Stats.Equal(b[i].Stats) || (a[i].Err == nil) != (b[i].Err == nil) {
			return false
		}
	}
	return true
}

// rowBytes is the canonical encoding of one result row: its cell and
// the payload the cache and the coordinator wire carry.
func rowBytes(c sweep.Cell, p sweep.Payload, errMsg string) []byte {
	b, _ := json.Marshal(struct {
		Cell    sweep.Cell
		Payload sweep.Payload
		Err     string `json:",omitempty"`
	}{c, p, errMsg})
	return append(b, '\n')
}

func resultBytes(rows []sweep.Result) []byte {
	var out []byte
	for _, r := range rows {
		msg := ""
		if r.Err != nil {
			msg = r.Err.Error()
		}
		out = append(out, rowBytes(r.Cell, sweep.Payload{Stats: r.Stats, Saturation: r.Saturation}, msg)...)
	}
	return out
}

// digestRows is the SHA-256 of the rows' canonical encoding, stamped in
// the ledger so "outputs byte-identical" claims can be checked.
func digestRows(rows []sweep.Result) string {
	sum := sha256.Sum256(resultBytes(rows))
	return hex.EncodeToString(sum[:])
}

// meanLatency is the delivered-weighted mean simulated latency over
// all cells, in cycles.
func meanLatency(rows []sweep.Result) float64 {
	var sum, n float64
	for _, r := range rows {
		sum += r.Stats.MeanLatency * float64(r.Stats.Delivered)
		n += float64(r.Stats.Delivered)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

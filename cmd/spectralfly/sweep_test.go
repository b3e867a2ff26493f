package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestSplitSpecs(t *testing.T) {
	got := splitSpecs(" lps(11,7), sf(9) ,jf(512,12,s=1) ")
	want := []string{"lps(11,7)", "sf(9)", "jf(512,12,s=1)"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splitSpecs = %q, want %q", got, want)
	}
	if got := splitSpecs("sf(9)"); !reflect.DeepEqual(got, []string{"sf(9)"}) {
		t.Errorf("single spec: %q", got)
	}
}

// TestSweepSpecOmitsWorkers: the shard count is a per-process knob, so
// the wire spec a coordinator hands to submit workers must not carry
// it — each worker applies its own -workers.
func TestSweepSpecOmitsWorkers(t *testing.T) {
	b, err := json.Marshal(specFromFlags(cliFlags{topos: "lps(11,7)", sim: exp.Options{Workers: 4}}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"workers"`) {
		t.Errorf("wire spec carries the shard count: %s", b)
	}
}

func TestParseFaults(t *testing.T) {
	axes, err := parseFaults("links:0.05,routers:0.1,regions:0.2:16", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(axes) != 3 || axes[0].Fraction != 0.05 || axes[2].RegionSize != 16 || axes[1].Trials != 3 {
		t.Errorf("axes = %+v", axes)
	}
	for _, bad := range []string{"links", "links:x", "regions:0.1:x", "quakes:0.1"} {
		if _, err := parseFaults(bad, 1); err == nil {
			t.Errorf("parseFaults(%q) succeeded", bad)
		}
	}
}

func TestParseMotifs(t *testing.T) {
	motifs, ranks, err := parseMotifs("")
	if err != nil || len(motifs) != 4 || ranks != 512 {
		t.Fatalf("defaults: %d motifs, ranks %d, err %v", len(motifs), ranks, err)
	}
	if _, _, err := parseMotifs("halo3d,unknown"); err == nil {
		t.Error("unknown motif accepted")
	}
}

// TestRunSweepSubcommand drives the generic sweep end to end through
// the flag surface, including the fault axis and per-cell rows.
func TestRunSweepSubcommand(t *testing.T) {
	fl := cliFlags{
		topos:  "lps(11,7),sf(9)",
		conc:   2,
		loads:  "0.3",
		faults: "links:0.1",
		sim:    exp.Options{Trials: 1, Ranks: 64, MsgsPerRank: 4, Seed: 11},
		intact: true,
	}
	res, err := runSweep(fl)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := res.([]sweepRow)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	// 2 intact + 2 damaged cells.
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for i, r := range rows {
		if r.Error != "" {
			t.Fatalf("row %d: %s", i, r.Error)
		}
		if r.Stats.Delivered == 0 {
			t.Fatalf("row %d idle: %+v", i, r.Cell)
		}
	}
	// Per-instance order: each topology's intact cell, then its damage.
	if rows[0].Fault != "none" || rows[1].Fault != "links" ||
		rows[2].Fault != "none" || rows[2].Instance != 1 {
		t.Errorf("cell order: %+v", rows)
	}

	// Saturation and motif measures parse and run.
	fl.faults, fl.loads, fl.measure, fl.topos = "", "", "saturation", "lps(11,7)"
	if _, err := runSweep(fl); err != nil {
		t.Fatal(err)
	}
	fl.measure, fl.motifs, fl.sim.Ranks = "motif", "fft", 0
	if _, err := runSweep(fl); err != nil {
		t.Fatal(err)
	}

	// Error surfaces: no topologies, bad measure, bad spec.
	if _, err := runSweep(cliFlags{}); err == nil || !strings.Contains(err.Error(), "-topos") {
		t.Errorf("missing -topos error: %v", err)
	}
	if _, err := runSweep(cliFlags{topos: "lps(11,7)", conc: 1, measure: "latency"}); err == nil {
		t.Error("bad -measure accepted")
	}
	if _, err := runSweep(cliFlags{topos: "torus(4,4)", conc: 1}); err == nil {
		t.Error("bad spec accepted")
	}
}

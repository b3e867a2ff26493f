package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
)

// These golden tests pin the exact -json document of every exhibit at
// a tiny fixed-seed configuration, so no refactor of the drivers, the
// sweep engine or the simulator can change a published result
// unnoticed. Regenerate (only for a deliberate numeric change) with
//
//	go test ./cmd/spectralfly -run Golden -update
var update = flag.Bool("update", false, "rewrite the CLI golden files")

// goldenConfigs gives every exhibit the (cheap) flag configuration it
// is pinned at. Configurations mirror what a user would pass on the
// command line; axes without flags use the drivers' quick-scale
// defaults, exactly as the binary would.
func goldenConfigs() map[string]appConfig {
	base := appConfig{scale: exp.Quick, class: 1, maxN: 4000}
	sim := base
	sim.opts = exp.SimOptions{Ranks: 64, MsgsPerRank: 4}

	satur := base
	satur.opts = exp.SimOptions{MsgsPerRank: 6}

	resil := base
	resil.opts = exp.SimOptions{Ranks: 64, MsgsPerRank: 4}

	scale := base
	scale.opts = exp.SimOptions{MsgsPerRank: 4}

	recon := base
	recon.opts = exp.SimOptions{Ranks: 64, MsgsPerRank: 4}

	// interference: 64-rank aggressor (victim 16), two aggressor loads,
	// both quick-scale topology families, all three placement policies.
	interf := base
	interf.opts = exp.SimOptions{Ranks: 64, MsgsPerRank: 4, Loads: []float64{0.1, 0.5}}

	// fig4-normbw at maxPQ 12: seven LPS rows, each partitioned.
	normbw := base
	normbw.maxPQ = 12

	return map[string]appConfig{
		"table1":        base,
		"fig3":          base,
		"fig4-feasible": base,
		"fig4-sizes":    base,
		"fig4-normbw":   normbw,
		"fig4-rawbw":    base,
		"fig5":          base,
		"table2":        base,
		"fig11":         base,
		"fig6":          sim,
		"fig7":          sim,
		"fig8":          sim,
		"fig9":          sim,
		"fig10":         sim,
		"saturation":    satur,
		"resilience":    resil,
		"reconfig":      recon,
		"interference":  interf,
		"scale":         scale,
		"ablations":     base,
	}
}

func TestCLIGoldenJSON(t *testing.T) {
	configs := goldenConfigs()
	for _, e := range exhibits {
		cfg, ok := configs[e.name]
		if !ok {
			t.Errorf("exhibit %q has no golden configuration", e.name)
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			result, err := e.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := encodeJSON(&buf, e.name, cfg.scale, result); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", e.name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s -json drifted from its golden file.\n--- got ---\n%s\n--- want ---\n%s",
					e.name, buf.Bytes(), want)
			}
		})
	}
}

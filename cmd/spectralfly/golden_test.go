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

// goldenConfigs gives every exhibit the (cheap) options it is pinned
// at, all at Quick scale. Configurations mirror what a user would pass
// on the command line; fields without flags use the drivers'
// quick-scale defaults, exactly as the binary would.
func goldenConfigs() map[string]exp.Options {
	sim := exp.Options{Ranks: 64, MsgsPerRank: 4}
	return map[string]exp.Options{
		"table1":        {},
		"fig3":          {},
		"fig4-feasible": {},
		"fig4-sizes":    {},
		// fig4-normbw at maxPQ 12: seven LPS rows, each partitioned.
		"fig4-normbw": {MaxPQ: 12},
		"fig4-rawbw":  {},
		"fig5":        {},
		"table2":      {},
		"fig11":       {},
		"fig6":        sim,
		"fig7":        sim,
		"fig8":        sim,
		"fig9":        sim,
		"fig10":       sim,
		"saturation":  {MsgsPerRank: 6},
		"resilience":  sim,
		"reconfig":    sim,
		// interference: 64-rank aggressor (victim 16), two aggressor
		// loads, both quick-scale topology families, all three
		// placement policies.
		"interference": {Ranks: 64, MsgsPerRank: 4, Loads: []float64{0.1, 0.5}},
		"scale":        {MsgsPerRank: 4},
		"ablations":    {},
	}
}

func TestCLIGoldenJSON(t *testing.T) {
	configs := goldenConfigs()
	for _, e := range exhibits {
		opts, ok := configs[e.name]
		if !ok {
			t.Errorf("exhibit %q has no golden configuration", e.name)
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			result, err := e.run(exp.Quick, opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := encodeJSON(&buf, e.name, exp.Quick, result); err != nil {
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

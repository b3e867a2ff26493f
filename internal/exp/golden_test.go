package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden test pins the exact numeric output of the resilience
// reducer (per-group trial averaging over damaged instances) at a tiny
// fixed-seed configuration: any refactor of the sweep engine, the
// simulator or the reducer that shifts a single delivered latency
// breaks it loudly instead of silently skewing the reproduction
// numbers. The CLI goldens in cmd/spectralfly/testdata pin every other
// exhibit. Regenerate with
//
//	go test ./internal/exp -run Golden -update
//
// and review the diff like any other code change.
var update = flag.Bool("update", false, "rewrite the exp golden file")

// TestResilienceGolden is deliberately tiny: the golden must stay
// cheap enough for every CI run and stable under GOMAXPROCS (the
// engine guarantees worker-count independence).
func TestResilienceGolden(t *testing.T) {
	points, err := Resilience(Quick, Options{
		Fractions:   []float64{0.1},
		Loads:       []float64{0.3},
		Trials:      2,
		Ranks:       64,
		MsgsPerRank: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "resilience_quick.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resilience_quick.json drifted.\n--- got ---\n%s\n--- want ---\n%s\n(run with -update if the change is intended)",
			got, want)
	}
}

package spectralfly

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func cachedSweep(dir string) *Sweep {
	return NewSweep("lps(11,7)").
		Concentration(2).
		Policies(RoutingMinimal).
		Loads(0.2, 0.5).
		Faults(FaultLinks(0.1, 2)).
		Ranks(64).
		MsgsPerRank(4).
		Seed(11).
		Cache(dir)
}

// TestSweepCacheWarmReplay: the façade-level warm-cache contract —
// second run misses nothing and reproduces the first run exactly.
func TestSweepCacheWarmReplay(t *testing.T) {
	dir := t.TempDir()
	cold := cachedSweep(dir)
	first, err := cold.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.CacheStats(); st.Misses != int64(len(first)) || st.Puts != int64(len(first)) {
		t.Fatalf("cold stats %+v for %d cells", st, len(first))
	}

	warm := cachedSweep(dir)
	second, err := warm.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.CacheStats(); st.Misses != 0 || st.Hits != int64(len(first)) {
		t.Fatalf("warm stats %+v, want %d hits and no misses", st, len(first))
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("warm replay diverges from the cold run")
	}

	plain, err := cachedSweep(dir + "-unused").Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, plain) {
		t.Error("cache changed the sweep's results")
	}
}

// TestSweepKilledRunResumesFromCache: the cache is the checkpoint. A
// cached run cancelled after 3 delivered cells, re-run on the same
// directory, replays at least those cells from the store, simulates
// only the rest and matches an uninterrupted run exactly.
func TestSweepKilledRunResumesFromCache(t *testing.T) {
	want, err := cachedSweep(t.TempDir()).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err = cachedSweep(dir).Run(ctx, func(CellResult) error {
		if n++; n == 3 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatal("cancelled run returned nil")
	}

	rerun := cachedSweep(dir)
	got, err := rerun.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("resumed run diverges from an uninterrupted one")
	}
	if st := rerun.CacheStats(); st.Hits < 3 || st.Hits+st.Misses != int64(len(want)) {
		t.Errorf("rerun stats %+v: want >= 3 hits and %d lookups", st, len(want))
	}
}

// TestSweepRunRangeMatchesRun at the façade level, including with a
// shared cache (the worker configuration).
func TestSweepRunRangeMatchesRun(t *testing.T) {
	dir := t.TempDir()
	full, err := cachedSweep(dir).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	var parts []CellResult
	for lo := 0; lo < len(full); lo += 2 {
		hi := lo + 2
		if hi > len(full) {
			hi = len(full)
		}
		if err := cachedSweep(dir2).RunRange(context.Background(), lo, hi, func(res CellResult) error {
			parts = append(parts, res)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(full, parts) {
		t.Error("ranged execution diverges from the full run")
	}
}

// TestSweepFingerprintAndKeys: fingerprints discriminate sweeps, cell
// keys line up with cells, and the version stamp is non-empty.
func TestSweepFingerprintAndKeys(t *testing.T) {
	if Version() == "" {
		t.Fatal("empty version stamp")
	}
	a, err := NewSweep("lps(11,7)").Loads(0.3).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSweep("lps(11,7)").Loads(0.3).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical sweeps fingerprint differently")
	}
	c, err := NewSweep("lps(11,7)").Loads(0.3).Seed(2).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("seed change did not move the fingerprint")
	}
	sw := NewSweep("lps(11,7)").Loads(0.2, 0.5)
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := sw.CellKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(cells) {
		t.Fatalf("%d keys for %d cells", len(keys), len(cells))
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if len(k) != 64 {
			t.Fatalf("key %q is not a sha256 hex digest", k)
		}
		if seen[k] {
			t.Fatal("duplicate cell key")
		}
		seen[k] = true
	}
}

// TestSweepCacheOpaqueScheduleRejected: RewiringSchedule axes cannot
// be cached (opaque Make closure).
func TestSweepCacheOpaqueScheduleRejected(t *testing.T) {
	net, err := BuildSpec("lps(11,7)")
	if err != nil {
		t.Fatal(err)
	}
	edges := net.G.Edges()[:2]
	err = NewSweep("lps(11,7)").Loads(0.3).
		Schedules(RewiringSchedule("rw", 300, 2, edges, edges)).
		Cache(t.TempDir()).
		Run(context.Background(), func(CellResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "opaque") {
		t.Fatalf("err = %v, want an opaque-schedule cache error", err)
	}
}

// TestSweepCacheDirLayout: the cache writes under the given directory
// only, as append-only segment files directly under it.
func TestSweepCacheDirLayout(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "cells")
	if _, err := cachedSweep(dir).Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(parent); err != nil || len(ents) != 1 || ents[0].Name() != "cells" {
		t.Fatalf("cache wrote outside its directory: %v %v", ents, err)
	}
	found := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path == dir {
			return nil
		}
		rel, _ := filepath.Rel(dir, path)
		if !d.Type().IsRegular() || strings.ContainsRune(rel, os.PathSeparator) || filepath.Ext(rel) != ".seg" {
			t.Errorf("unexpected cache file layout: %s (mode %v)", rel, d.Type())
		}
		found++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found != 1 {
		t.Fatalf("one cache instance wrote %d files, want one segment", found)
	}
}

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

// TestSweepCacheRewiringSchedule: a RewiringSchedule axis is a fixed
// schedule value, so its sweep caches like any other — a warm re-run
// simulates nothing and reproduces the cold run — and a configuration
// edge outside the swept topology fails CellKeys and Run up front,
// naming the axis. Identical configurations give an empty schedule,
// which runs the network static rather than being read as churn.
func TestSweepCacheRewiringSchedule(t *testing.T) {
	net, err := BuildSpec("lps(11,7)")
	if err != nil {
		t.Fatal(err)
	}
	edges := net.G.Edges()
	sweepOf := func(configs ...[][2]int32) *Sweep {
		rw, err := RewiringSchedule("rw", 300, 2, configs...)
		if err != nil {
			t.Fatal(err)
		}
		return NewSweep("lps(11,7)").Concentration(2).Loads(0.3).Ranks(64).MsgsPerRank(4).
			IntactBaseline(false).Schedules(rw)
	}
	keys := map[string]string{}
	for name, second := range map[string][][2]int32{
		"identical": edges,
		"drop two":  edges[2:],
	} {
		dir := t.TempDir()
		cold, err := sweepOf(edges, second).Cache(dir).Collect(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cold) == 0 || cold[0].Err != nil || cold[0].Schedule != "rw" {
			t.Fatalf("%s: cold rewiring run: %+v", name, cold)
		}
		if st := cold[0].Stats; name == "identical" && (st.Dropped != 0 || st.SeveredInFlight != 0) {
			t.Errorf("%s: static leg dropped %d, severed %d", name, st.Dropped, st.SeveredInFlight)
		}
		sw := sweepOf(edges, second).Cache(dir)
		warm, err := sw.Collect(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := sw.CacheStats(); st.Misses != 0 {
			t.Errorf("%s: warm rewiring run missed %d cells", name, st.Misses)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("%s: warm rewiring run diverges from the cold run", name)
		}
		ks, err := sw.CellKeys()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys[name] = ks[0]
	}
	if keys["identical"] == keys["drop two"] {
		t.Error("empty and nonempty rewiring schedules share a content key")
	}

	nonEdge := [2]int32{0, 1}
	for net.G.HasEdge(0, int(nonEdge[1])) {
		nonEdge[1]++
	}
	bad := sweepOf(edges, [][2]int32{nonEdge})
	if _, err := bad.CellKeys(); err == nil || !strings.Contains(err.Error(), `"rw"`) {
		t.Errorf("CellKeys err = %v, want one naming axis \"rw\"", err)
	}
	if _, err := bad.Collect(context.Background()); err == nil || !strings.Contains(err.Error(), `"rw"`) {
		t.Errorf("Collect err = %v, want one naming axis \"rw\"", err)
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

package spectralfly

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/service"
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

// TestSweepResumeJournal: Resume writes a fingerprint-named journal
// that is a prefix record of cell order, and an interrupted run's
// journal stops exactly where the stream did.
func TestSweepResumeJournal(t *testing.T) {
	dir := t.TempDir()
	sw := cachedSweep(dir).Resume(true)
	res, err := sw.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := cachedSweep(dir).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := cachedSweep(dir).CellKeys()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := service.LoadJournal(filepath.Join(dir, "journals", fp+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(res) {
		t.Fatalf("journal has %d entries for %d cells", len(entries), len(res))
	}
	for i, e := range entries {
		if e.Index != i || e.Key != keys[i] {
			t.Fatalf("journal entry %d = %+v, want index %d key %s", i, e, i, keys[i])
		}
	}

	// Interrupt a fresh run after 3 cells: the journal must hold
	// exactly the delivered prefix.
	dir2 := t.TempDir()
	sw2 := cachedSweep(dir2).Resume(true)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err = sw2.Run(ctx, func(CellResult) error {
		if n++; n == 3 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatal("cancelled run returned nil")
	}
	fp2, _ := cachedSweep(dir2).Fingerprint()
	partial, err := service.LoadJournal(filepath.Join(dir2, "journals", fp2+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) != n {
		t.Fatalf("journal has %d entries after %d deliveries", len(partial), n)
	}

	// Resuming completes the grid; the cells computed before the kill
	// replay from the cache (hits >= the journaled prefix).
	sw3 := cachedSweep(dir2).Resume(true)
	resumed, err := sw3.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, resumed) {
		t.Error("resumed run diverges from an uninterrupted one")
	}
	if st := sw3.CacheStats(); st.Hits < int64(len(partial)) {
		t.Errorf("resume replayed only %d cells from cache, journal had %d", st.Hits, len(partial))
	}
}

// TestSweepResumeRequiresCache: Resume without Cache is an error.
func TestSweepResumeRequiresCache(t *testing.T) {
	err := NewSweep("lps(11,7)").Loads(0.3).Resume(true).
		Run(context.Background(), func(CellResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "Cache") {
		t.Fatalf("err = %v, want a Resume-requires-Cache error", err)
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

package service_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	spectralfly "repro"
	"repro/internal/service"
	"repro/internal/sweep"
)

// TestCacheDetectsCorruption: one flipped payload byte inside a
// segment costs exactly that entry. A fresh cache misses it and
// reports the corruption while hitting every other key, and a warm
// sweep over the directory re-simulates that one cell and reproduces
// the cold run byte for byte.
func TestCacheDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	grid := func() *spectralfly.Sweep {
		return spectralfly.NewSweep("lps(11,7)").Concentration(2).
			Loads(0.2, 0.4, 0.6).Ranks(64).MsgsPerRank(4).Seed(5).Cache(dir)
	}
	cold := grid()
	first, err := cold.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	keys, err := cold.CellKeys()
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside cell 1's payload, which follows its key.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(keys[1]))
	if at < 0 {
		t.Fatal("cell 1's key is not in the segment")
	}
	data[at+len(keys[1])+2] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := service.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("corrupt entry served")
	}
	if c.Err() == nil {
		t.Fatal("corrupt entry not reported in Err")
	}
	for i, key := range keys {
		if _, ok := c.Get(key); ok != (i != 1) {
			t.Fatalf("cell %d: hit = %v", i, ok)
		}
	}

	warm := grid()
	second, err := warm.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.CacheStats(); st.Misses != 1 || st.Puts != 1 || st.Hits != int64(len(keys)-1) {
		t.Fatalf("warm stats %+v, want exactly one re-simulated cell of %d", st, len(keys))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm run diverges from the cold run")
	}
	for i := range first {
		a, err1 := sweep.EncodePayload(first[i])
		b, err2 := sweep.EncodePayload(second[i])
		if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
			t.Fatalf("cell %d: cold %s, warm %s (%v, %v)", i, a, b, err1, err2)
		}
	}
}

package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// segmentFiles returns the segment files under dir and fails the test
// on anything else there: every file the cache writes is a segment
// directly under its root.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if !e.Type().IsRegular() || filepath.Ext(e.Name()) != segSuffix {
			t.Errorf("unexpected cache file %s (mode %v)", e.Name(), e.Type())
			continue
		}
		segs = append(segs, filepath.Join(dir, e.Name()))
	}
	return segs
}

func TestCacheRoundTrip(t *testing.T) {
	c := openCache(t, t.TempDir())
	key := "ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12"
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	if segs := segmentFiles(t, c.Dir()); len(segs) != 0 {
		t.Fatalf("a cache with no Put wrote %v", segs)
	}
	c.Put(key, []byte("payload"))
	got, ok := c.Get(key)
	if !ok || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Segment layout: the entry is one record in this instance's
	// segment, directly under the root.
	if segs := segmentFiles(t, c.Dir()); len(segs) != 1 {
		t.Fatalf("segments = %v, want exactly one", segs)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Err() != nil {
		t.Fatalf("unexpected soft error: %v", c.Err())
	}
	if got, ok := openCache(t, c.Dir()).Get(key); !ok || string(got) != "payload" {
		t.Fatalf("fresh instance: Get = %q, %v", got, ok)
	}
}

func TestCachePutIdempotentOverwrite(t *testing.T) {
	c := openCache(t, t.TempDir())
	key := "ffee00112233ffee00112233ffee00112233ffee00112233ffee00112233ffee"
	c.Put(key, []byte("one"))
	c.Put(key, []byte("one")) // double write (coordinator + loopback worker)
	got, ok := c.Get(key)
	if !ok || string(got) != "one" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestCacheUnsafeKeysDoNotEscape(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "cache")
	c := openCache(t, dir)
	keys := []string{"", "a", "../evil", "x/y", `x\y`, "a.b", "..", "/abs", "k\x00\n"}
	for i, key := range keys {
		c.Put(key, []byte(fmt.Sprint("v", i)))
	}
	if ents, err := os.ReadDir(parent); err != nil || len(ents) != 1 || ents[0].Name() != "cache" {
		t.Fatalf("cache wrote outside its root: %v %v", ents, err)
	}
	if segs := segmentFiles(t, dir); len(segs) != 1 {
		t.Fatalf("segments = %v, want exactly one", segs)
	}
	for _, c := range []*Cache{c, openCache(t, dir)} {
		for i, key := range keys {
			if got, ok := c.Get(key); !ok || string(got) != fmt.Sprint("v", i) {
				t.Fatalf("key %q: Get = %q, %v", key, got, ok)
			}
		}
	}
}

func TestCacheConcurrentWriters(t *testing.T) {
	key := func(p string, i int) string { return fmt.Sprintf("%s%062d", p, i) }

	t.Run("two-instances", func(t *testing.T) {
		dir := t.TempDir()
		a, b := openCache(t, dir), openCache(t, dir)
		var wg sync.WaitGroup
		for _, w := range []struct {
			c *Cache
			p string
		}{{a, "aa"}, {b, "bb"}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					w.c.Put(key(w.p, i), []byte("v"+w.p))
					w.c.Put(key("cc", i), []byte("vcc")) // both write the shared cells
				}
			}()
		}
		wg.Wait()
		for i := 0; i < 200; i++ {
			if got, ok := a.Get(key("aa", i)); !ok || string(got) != "vaa" {
				t.Fatalf("own entry %d: %q %v", i, got, ok)
			}
		}
		if segs := segmentFiles(t, dir); len(segs) != 2 {
			t.Fatalf("segments = %v, want one per writer", segs)
		}
		// A third instance sees every entry both writers stored.
		c := openCache(t, dir)
		for _, p := range []string{"aa", "bb", "cc"} {
			for i := 0; i < 200; i++ {
				if got, ok := c.Get(key(p, i)); !ok || string(got) != "v"+p {
					t.Fatalf("third instance, %s entry %d: %q %v", p, i, got, ok)
				}
			}
		}
		for _, c := range []*Cache{a, b, c} {
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("one-instance", func(t *testing.T) {
		c := openCache(t, t.TempDir())
		const writers, n = 4, 100
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			p := fmt.Sprintf("%02d", w)
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					c.Put(key(p, i), []byte("v"+p))
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if got, ok := c.Get(key(p, i)); ok && string(got) != "v"+p {
						t.Errorf("concurrent Get %s/%d = %q", p, i, got)
					}
				}
			}()
		}
		wg.Wait()
		for w := 0; w < writers; w++ {
			p := fmt.Sprintf("%02d", w)
			for i := 0; i < n; i++ {
				if got, ok := c.Get(key(p, i)); !ok || string(got) != "v"+p {
					t.Fatalf("entry %s/%d: %q %v", p, i, got, ok)
				}
			}
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCacheTornTail: a segment cut mid-record (a crash mid-write) keeps
// every whole record before the cut, misses the torn one, and leaves
// the cache writable.
func TestCacheTornTail(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	keys := []string{"k0", "k1", "k2"}
	for _, k := range keys {
		c.Put(k, []byte("payload of "+k))
	}
	segs := segmentFiles(t, dir)
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	c = openCache(t, dir)
	for _, k := range keys[:2] {
		if got, ok := c.Get(k); !ok || string(got) != "payload of "+k {
			t.Fatalf("%s before the tear: %q %v", k, got, ok)
		}
	}
	if _, ok := c.Get("k2"); ok {
		t.Fatal("torn record hit")
	}
	c.Put("k2", []byte("payload of k2"))
	c.Put("k3", []byte("payload of k3"))
	for _, c := range []*Cache{c, openCache(t, dir)} {
		for _, k := range []string{"k0", "k1", "k2", "k3"} {
			if got, ok := c.Get(k); !ok || string(got) != "payload of "+k {
				t.Fatalf("%s after re-Put: %q %v", k, got, ok)
			}
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzCacheOpen: arbitrary bytes as a segment never panic OpenCache,
// and every hit returns a payload matching its record's stored digest.
func FuzzCacheOpen(f *testing.F) {
	rec := func(key, payload string) []byte {
		dir := f.TempDir()
		c, err := OpenCache(dir)
		if err != nil {
			f.Fatal(err)
		}
		c.Put(key, []byte(payload))
		b, err := os.ReadFile(c.segs[0].path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := append(rec("k0", `{"stats":{}}`), rec("", "")...)
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(append(bytes.Clone(good), "junk"...))
	flipped := bytes.Clone(good)
	flipped[len(flipped)-recHeader-3] ^= 1
	f.Add(flipped)
	f.Add([]byte(recMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0"+segSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		for key, loc := range c.index {
			got, ok := c.Get(key)
			if !ok {
				continue
			}
			end := loc.off + int64(loc.n)
			if end > int64(len(data)) {
				t.Fatalf("key %q: hit on a record past EOF", key)
			}
			r := data[loc.off:end]
			sum := sha256.Sum256(got)
			if !bytes.Equal(sum[:], r[len(recMagic)+8:recHeader]) || !bytes.Equal(got, r[recHeader+len(key):]) {
				t.Fatalf("key %q: hit payload %q does not match its record", key, got)
			}
		}
	})
}

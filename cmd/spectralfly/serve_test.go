package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	spectralfly "repro"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/sweep"
)

// serveFlags is the tiny distributed-test grid: one topology, two
// loads, one fault axis with two trials plus the intact baseline — 6
// cells, claimed one at a time so ranges interleave across workers.
func serveFlags(dir string) cliFlags {
	return cliFlags{
		topos: "lps(11,7)", conc: 2, loads: "0.2,0.5", faults: "links:0.1",
		sim: exp.Options{Trials: 2, Ranks: 64, MsgsPerRank: 4, Seed: 11}, intact: true,
		addr: "127.0.0.1:0", cacheDir: dir, chunk: 1,
	}
}

// refDoc runs the same grid single-process (no cache, no fabric) and
// returns the exact -json document it emits — the byte-level target
// every distributed configuration must reproduce.
func refDoc(t *testing.T) []byte {
	t.Helper()
	fl := serveFlags("")
	fl.cacheDir, fl.addr = "", ""
	res, err := runSweep(fl)
	if err != nil {
		t.Fatal(err)
	}
	return encodeDoc(t, res)
}

func encodeDoc(t *testing.T, rows any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeJSON(&buf, "sweep", exp.Quick, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startWorker joins the coordinator like `spectralfly submit` (grid
// rebuild, version + fingerprint verification, ranged execution) with
// test-friendly poll/heartbeat intervals. With maxPosts > 0 the worker
// posts at most that many cells; its next computed cell then blocks
// until ctx is cancelled, so the grid stops at a known point.
func startWorker(ctx context.Context, t *testing.T, url, name string, maxPosts int32) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		sw, keys, err := joinGrid(ctx, url)
		if err != nil {
			errc <- err
			return
		}
		applyLocalKnobs(sw, cliFlags{})
		exec := sweepExec(sw, keys)
		var posted atomic.Int32
		errc <- service.RunWorker(ctx, service.WorkerConfig{
			Coordinator: url,
			Name:        name,
			Exec: func(ctx context.Context, lo, hi int, post func(int, string, []byte, string) error) error {
				return exec(ctx, lo, hi, func(i int, k string, p []byte, e string) error {
					if maxPosts > 0 && posted.Add(1) > maxPosts {
						<-ctx.Done()
						return ctx.Err()
					}
					return post(i, k, p, e)
				})
			},
			PollInterval:      20 * time.Millisecond,
			HeartbeatInterval: 50 * time.Millisecond,
		})
	}()
	return errc
}

// TestServeSubmitByteIdentical: a grid sharded over two workers emits
// the exact document of a single-process run, and a second serve
// against the warm cache completes with zero workers and zero misses.
func TestServeSubmitByteIdentical(t *testing.T) {
	want := refDoc(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	dir := t.TempDir()
	s, err := newSweepServer(serveFlags(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	url := "http://" + s.addr()
	w1 := startWorker(ctx, t, url, "w1", 0)
	w2 := startWorker(ctx, t, url, "w2", 0)
	rows, err := s.wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeDoc(t, rows); !bytes.Equal(got, want) {
		t.Errorf("distributed run diverges from single-process output\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	for i, w := range []<-chan error{w1, w2} {
		if err := <-w; err != nil {
			t.Errorf("worker %d: %v", i+1, err)
		}
	}
	if err := s.cache.Err(); err != nil {
		t.Errorf("cache IO error: %v", err)
	}

	// Warm pass: every cell prefills from the cache, so the grid is
	// done at construction — no workers join at all.
	s2, err := newSweepServer(serveFlags(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	if n := s2.coord.Remaining(); n != 0 {
		t.Fatalf("warm serve still owes %d cells", n)
	}
	rows2, err := s2.wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.cache.Stats(); st.Misses != 0 || st.Puts != 0 {
		t.Errorf("warm serve stats %+v, want pure hits", st)
	}
	if got := encodeDoc(t, rows2); !bytes.Equal(got, want) {
		t.Error("warm serve diverges from single-process output")
	}
}

// TestServeWorkerFailover: a worker that dies mid-grid (stops
// heartbeating after its first result) is reaped and its cells finish
// on the surviving worker, with byte-identical output.
func TestServeWorkerFailover(t *testing.T) {
	want := refDoc(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	fl := serveFlags(t.TempDir())
	fl.heartbeat = 300 * time.Millisecond
	s, err := newSweepServer(fl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	url := "http://" + s.addr()

	// The dying worker: joins normally, posts one result, then its
	// context is cancelled — heartbeats stop and its claimed ranges
	// orphan until the coordinator re-queues them.
	dieCtx, die := context.WithCancel(ctx)
	defer die()
	dying := make(chan error, 1)
	go func() {
		sw, keys, err := joinGrid(ctx, url)
		if err != nil {
			dying <- err
			return
		}
		applyLocalKnobs(sw, cliFlags{})
		exec := sweepExec(sw, keys)
		var posted atomic.Int32
		dying <- service.RunWorker(dieCtx, service.WorkerConfig{
			Coordinator:       url,
			Name:              "dying",
			PollInterval:      20 * time.Millisecond,
			HeartbeatInterval: 50 * time.Millisecond,
			Exec: func(ctx context.Context, lo, hi int, post func(int, string, []byte, string) error) error {
				return exec(ctx, lo, hi, func(i int, k string, p []byte, e string) error {
					if err := post(i, k, p, e); err != nil {
						return err
					}
					if posted.Add(1) == 1 {
						die()
					}
					return nil
				})
			},
		})
	}()
	if err := <-dying; err == nil {
		t.Error("dying worker exited cleanly; expected a cancellation error")
	}

	survivor := startWorker(ctx, t, url, "survivor", 0)
	rows, err := s.wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-survivor; err != nil {
		t.Errorf("survivor: %v", err)
	}
	if got := encodeDoc(t, rows); !bytes.Equal(got, want) {
		t.Error("failover run diverges from single-process output")
	}
}

// TestServeCoordinatorRestart: killing the coordinator mid-grid loses
// nothing — results are cached before they are emitted, so a restarted
// serve prefills the finished prefix and the remaining cells complete
// on a fresh worker, byte-identical to an uninterrupted run.
func TestServeCoordinatorRestart(t *testing.T) {
	want := refDoc(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	dir := t.TempDir()
	fl := serveFlags(dir)
	s1, err := newSweepServer(fl)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + s1.addr()
	w1Ctx, stopW1 := context.WithCancel(ctx)
	const posts = 2
	w1 := startWorker(w1Ctx, t, url, "w1", posts)

	// Kill the coordinator once w1 has posted its cells and stalled on
	// the next: 2 of the 6 cells are emitted, and the rest are not.
	deadline := time.Now().Add(time.Minute)
	for len(s1.snapshot()) < posts {
		if time.Now().After(deadline) {
			t.Fatal("no progress before the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
	killed := len(s1.snapshot())
	s1.close()
	stopW1()
	<-w1

	s2, err := newSweepServer(fl)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	if pre := len(s2.snapshot()); pre < killed {
		t.Errorf("restart prefilled %d cells, first run had emitted %d", pre, killed)
	}
	if s2.coord.Remaining() == 0 {
		t.Fatal("grid unexpectedly complete before the kill point; pick an earlier kill")
	}
	w2 := startWorker(ctx, t, "http://"+s2.addr(), "w2", 0)
	rows, err := s2.wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-w2; err != nil {
		t.Errorf("w2: %v", err)
	}
	if got := encodeDoc(t, rows); !bytes.Equal(got, want) {
		t.Error("restarted run diverges from single-process output")
	}
}

// TestServeRejectsMismatchedKey: the coordinator caches every posted
// cell under its own key for that index. A post for cell 0 carrying
// cell 1's key aborts the grid and stores nothing under either key.
func TestServeRejectsMismatchedKey(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dir := t.TempDir()
	fl := serveFlags(dir)
	sw, err := specFromFlags(fl).sweep()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := sw.CellKeys()
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	if err := sw.RunRange(ctx, 0, 1, func(res spectralfly.CellResult) error {
		payload, err = sweep.EncodePayload(res)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	s, err := newSweepServer(fl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	body, err := json.Marshal(service.ResultPost{Worker: "w", Cells: []service.ResultCell{{Index: 0, Key: keys[1], Payload: payload}}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/result", bytes.NewReader(body)))

	cache, err := service.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:2] {
		if _, ok := cache.Get(k); ok {
			t.Errorf("cache holds key %s after a mismatched post", k)
		}
	}
	if rec.Code == http.StatusOK {
		t.Fatalf("mismatched post acknowledged: %s", rec.Body)
	}
	if _, err := s.wait(ctx); err == nil || !strings.Contains(err.Error(), "cell 0") {
		t.Fatalf("grid error = %v, want one naming cell 0", err)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakePayload is the deterministic "measurement" the fake workers
// below compute for a cell — any pure function of the index works.
func fakePayload(i int) []byte { return []byte(fmt.Sprintf(`{"cell":%d}`, i)) }
func fakeKey(i int) string     { return fmt.Sprintf("%064x", i+1) }

// fakeExec builds a WorkerConfig.Exec that computes fakePayload for
// each index, optionally sleeping per cell and failing via kill.
func fakeExec(delay time.Duration, kill context.CancelFunc, killAfter int, counter *int64, mu *sync.Mutex) func(context.Context, int, int, func(int, string, []byte, string) error) error {
	return func(ctx context.Context, lo, hi int, post func(int, string, []byte, string) error) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			if err := post(i, fakeKey(i), fakePayload(i), ""); err != nil {
				return err
			}
			mu.Lock()
			*counter++
			done := *counter
			mu.Unlock()
			if kill != nil && done >= int64(killAfter) {
				kill()
				return ctx.Err()
			}
		}
		return nil
	}
}

// collect builds an Emit that appends rows and asserts strict index
// order.
type collector struct {
	mu      sync.Mutex
	t       *testing.T
	indices []int
	rows    map[int]string
}

func (c *collector) emit(index int, key string, payload []byte, errMsg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.indices) > 0 && index != c.indices[len(c.indices)-1]+1 {
		c.t.Errorf("emit order broken: %d after %d", index, c.indices[len(c.indices)-1])
	} else if len(c.indices) == 0 && index != 0 {
		c.t.Errorf("first emit is %d, want 0", index)
	}
	if errMsg != "" {
		c.t.Errorf("cell %d errored: %s", index, errMsg)
	}
	c.indices = append(c.indices, index)
	if c.rows == nil {
		c.rows = map[int]string{}
	}
	if _, dup := c.rows[index]; dup {
		c.t.Errorf("cell %d emitted twice", index)
	}
	c.rows[index] = string(payload)
	return nil
}

func newTestCoordinator(t *testing.T, cells int, cfg CoordinatorConfig) (*Coordinator, *collector, *httptest.Server) {
	t.Helper()
	col := &collector{t: t}
	cfg.Info = GridInfo{Spec: []byte(`{}`), Cells: cells, Fingerprint: "fp", Version: "test"}
	cfg.Emit = col.emit
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return coord, col, srv
}

func checkComplete(t *testing.T, col *collector, cells int) {
	t.Helper()
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.indices) != cells {
		t.Fatalf("emitted %d cells, want %d", len(col.indices), cells)
	}
	for i := 0; i < cells; i++ {
		if col.rows[i] != string(fakePayload(i)) {
			t.Fatalf("cell %d payload %q", i, col.rows[i])
		}
	}
}

func TestCoordinatorTwoWorkers(t *testing.T) {
	const cells = 53
	coord, col, srv := newTestCoordinator(t, cells, CoordinatorConfig{Chunk: 5, HeartbeatTimeout: 5 * time.Second})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var mu sync.Mutex
	var n int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			err := RunWorker(ctx, WorkerConfig{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("w%d", w),
				Exec:        fakeExec(0, nil, 0, &n, &mu),
			})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-coord.Done():
	default:
		t.Fatal("workers exited but grid not done")
	}
	checkComplete(t, col, cells)
	if coord.Remaining() != 0 {
		t.Fatalf("remaining = %d", coord.Remaining())
	}
}

// TestCoordinatorOrphanRequeue kills a worker after its first result
// and lets heartbeat expiry hand its range to a second worker.
func TestCoordinatorOrphanRequeue(t *testing.T) {
	const cells = 20
	coord, col, srv := newTestCoordinator(t, cells, CoordinatorConfig{Chunk: 10, HeartbeatTimeout: 300 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var mu sync.Mutex
	var n int64

	// Worker A claims a 10-cell range, posts one result, then dies
	// (context cancelled; heartbeats stop).
	actx, akill := context.WithCancel(ctx)
	_ = RunWorker(actx, WorkerConfig{
		Coordinator:       srv.URL,
		Name:              "dying",
		Exec:              fakeExec(0, akill, 1, &n, &mu),
		HeartbeatInterval: 50 * time.Millisecond,
	})

	// Worker B finishes everything, including A's orphaned tail once
	// the heartbeat timeout passes.
	err := RunWorker(ctx, WorkerConfig{
		Coordinator:       srv.URL,
		Name:              "survivor",
		Exec:              fakeExec(0, nil, 0, &n, &mu),
		PollInterval:      50 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("survivor: %v", err)
	}
	<-coord.Done()
	checkComplete(t, col, cells)
}

// TestCoordinatorStealsFromSlowWorker gives one slow worker the whole
// grid in a single chunk and checks that an idle worker steals the
// tail instead of waiting for it.
func TestCoordinatorStealsFromSlowWorker(t *testing.T) {
	const cells = 24
	coord, col, srv := newTestCoordinator(t, cells, CoordinatorConfig{Chunk: cells, HeartbeatTimeout: 30 * time.Second})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var mu sync.Mutex
	var n int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Slow: 20ms per cell; alone it would need ~0.5s.
		if err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, Name: "slow",
			Exec: fakeExec(20*time.Millisecond, nil, 0, &n, &mu)}); err != nil {
			t.Errorf("slow: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		time.Sleep(30 * time.Millisecond) // let slow claim the one big chunk
		if err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, Name: "fast",
			Exec: fakeExec(0, nil, 0, &n, &mu), PollInterval: 20 * time.Millisecond}); err != nil {
			t.Errorf("fast: %v", err)
		}
	}()
	wg.Wait()
	<-coord.Done()
	checkComplete(t, col, cells)
	mu.Lock()
	posts := n
	mu.Unlock()
	// Duplicates from the stolen overlap are allowed (the slow worker
	// keeps computing its original range) but stealing must have
	// produced at least the grid, and the emit path deduplicated.
	if posts < cells {
		t.Fatalf("posted %d results, want >= %d", posts, cells)
	}
}

// TestCoordinatorPrefilled replays a warm-cache prefix without any
// worker touching those cells.
func TestCoordinatorPrefilled(t *testing.T) {
	const cells = 10
	pre := make([]JournalEntryPayload, 0, 4)
	for _, i := range []int{0, 1, 2, 7} {
		pre = append(pre, JournalEntryPayload{Index: i, Key: fakeKey(i), Payload: fakePayload(i)})
	}
	coord, col, srv := newTestCoordinator(t, cells, CoordinatorConfig{Chunk: 3, Prefilled: pre})

	// The contiguous prefix 0..2 must already be emitted.
	col.mu.Lock()
	if len(col.indices) != 3 {
		t.Fatalf("prefill emitted %d cells, want 3", len(col.indices))
	}
	col.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var mu sync.Mutex
	var n int64
	seen := map[int]bool{}
	err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, Name: "w",
		Exec: func(ctx context.Context, lo, hi int, post func(int, string, []byte, string) error) error {
			mu.Lock()
			for i := lo; i < hi; i++ {
				if seen[i] {
					t.Errorf("cell %d claimed twice", i)
				}
				seen[i] = true
			}
			mu.Unlock()
			return fakeExec(0, nil, 0, &n, &mu)(ctx, lo, hi, post)
		}})
	if err != nil {
		t.Fatal(err)
	}
	<-coord.Done()
	checkComplete(t, col, cells)
	mu.Lock()
	for _, i := range []int{0, 1, 2, 7} {
		if seen[i] {
			t.Errorf("prefilled cell %d was handed to a worker", i)
		}
	}
	mu.Unlock()
}

// TestCoordinatorAllPrefilled is the 100%-cache-hit path: done before
// any worker exists.
func TestCoordinatorAllPrefilled(t *testing.T) {
	const cells = 6
	pre := make([]JournalEntryPayload, cells)
	for i := range pre {
		pre[i] = JournalEntryPayload{Index: i, Key: fakeKey(i), Payload: fakePayload(i)}
	}
	coord, col, srv := newTestCoordinator(t, cells, CoordinatorConfig{Prefilled: pre})
	select {
	case <-coord.Done():
	default:
		t.Fatal("fully prefilled grid not done at construction")
	}
	checkComplete(t, col, cells)

	// A late worker is told "done" immediately.
	ctx := context.Background()
	err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, Name: "late",
		Exec: func(ctx context.Context, lo, hi int, post func(int, string, []byte, string) error) error {
			t.Error("late worker was handed a range")
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFetchGridAndVersionGate(t *testing.T) {
	_, _, srv := newTestCoordinator(t, 3, CoordinatorConfig{})
	info, err := FetchGrid(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cells != 3 || info.Fingerprint != "fp" || info.Version != "test" {
		t.Fatalf("info = %+v", info)
	}
}

func TestWorkerUnreachableCoordinator(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	err := RunWorker(ctx, WorkerConfig{Coordinator: "http://127.0.0.1:1", Name: "w",
		Exec: func(context.Context, int, int, func(int, string, []byte, string) error) error { return nil }})
	if err == nil {
		t.Fatal("expected error against unreachable coordinator")
	}
	if time.Since(start) > 8*time.Second {
		t.Fatalf("gave up too slowly: %v", time.Since(start))
	}
}

// TestCoordinatorStatusEndpoint drives a small grid by hand and checks
// the /v1/status snapshot at each phase: cached prefill, a claimed
// range with heartbeat ages, and completion.
func TestCoordinatorStatusEndpoint(t *testing.T) {
	const cells = 10
	prefilled := []JournalEntryPayload{
		{Index: 0, Key: fakeKey(0), Payload: fakePayload(0)},
		{Index: 1, Key: fakeKey(1), Payload: fakePayload(1)},
	}
	coord, _, srv := newTestCoordinator(t, cells, CoordinatorConfig{
		Chunk: 4, HeartbeatTimeout: time.Hour, Prefilled: prefilled,
	})

	fetch := func() StatusResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status code %d", resp.StatusCode)
		}
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := fetch()
	if st.Cells != cells || st.Done != 2 || st.Cached != 2 || st.Emitted != 2 {
		t.Fatalf("after prefill: %+v", st)
	}
	if st.Claimed != 0 || st.Queued != 8 || len(st.Workers) != 0 {
		t.Fatalf("after prefill: %+v", st)
	}

	grant := coord.claim("w1")
	if grant.Wait || grant.Done {
		t.Fatalf("claim: %+v", grant)
	}
	st = fetch()
	if st.Claimed != grant.Hi-grant.Lo || st.Queued != 8-st.Claimed {
		t.Fatalf("after claim: %+v", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].Worker != "w1" || st.Workers[0].Claimed != st.Claimed {
		t.Fatalf("after claim: %+v", st)
	}
	if st.Workers[0].HeartbeatAgeMs < 0 {
		t.Fatalf("negative heartbeat age: %+v", st.Workers[0])
	}

	for i := 2; i < cells; i++ {
		if err := coord.result(ResultPost{Worker: "w1", Cells: []ResultCell{{Index: i, Key: fakeKey(i), Payload: fakePayload(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	st = fetch()
	if st.Done != cells || st.Emitted != cells || st.Claimed != 0 || st.Queued != 0 {
		t.Fatalf("after completion: %+v", st)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("grid not done")
	}
}

// TestWorkerBatchesResults: with heartbeats too slow to flush, a
// worker posts each claimed range's cells as one batch.
func TestWorkerBatchesResults(t *testing.T) {
	const cells, chunk = 64, 16
	coord, col, _ := newTestCoordinator(t, cells, CoordinatorConfig{Chunk: chunk, HeartbeatTimeout: time.Hour})
	var posts atomic.Int32
	h := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/result" {
			posts.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var mu sync.Mutex
	var n int64
	err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, Name: "w",
		Exec: fakeExec(0, nil, 0, &n, &mu), HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	<-coord.Done()
	checkComplete(t, col, cells)
	if got := posts.Load(); got != cells/chunk {
		t.Fatalf("%d result posts for %d ranges", got, cells/chunk)
	}
}

// TestWorkerFlushesWhileExecBlocks: cells a range has completed reach
// the coordinator within a few heartbeat intervals even while the
// range's Exec is still blocked on its next cell.
func TestWorkerFlushesWhileExecBlocks(t *testing.T) {
	const cells, k = 8, 3
	const beat = 50 * time.Millisecond
	coord, col, srv := newTestCoordinator(t, cells, CoordinatorConfig{Chunk: cells, HeartbeatTimeout: time.Hour})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, Name: "w", HeartbeatInterval: beat,
			Exec: func(ctx context.Context, lo, hi int, post func(int, string, []byte, string) error) error {
				for i := lo; i < lo+k; i++ {
					if err := post(i, fakeKey(i), fakePayload(i), ""); err != nil {
						return err
					}
				}
				<-ctx.Done()
				return ctx.Err()
			}})
	}()

	emitted := func() int {
		col.mu.Lock()
		defer col.mu.Unlock()
		return len(col.indices)
	}
	deadline := time.Now().Add(20 * beat)
	for emitted() < k {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d completed cells emitted after %v of a blocked Exec", emitted(), k, 20*beat)
		}
		time.Sleep(beat / 10)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Error("cancelled worker exited cleanly")
	}
	if got, rem := emitted(), coord.Remaining(); got != k || rem != cells-k {
		t.Fatalf("emitted %d, remaining %d; want %d and %d", got, rem, k, cells-k)
	}
}

// batch builds a ResultPost from worker w for the given indices, each
// carrying its own fake key and payload.
func batch(w string, indices ...int) ResultPost {
	post := ResultPost{Worker: w}
	for _, i := range indices {
		post.Cells = append(post.Cells, ResultCell{Index: i, Key: fakeKey(i), Payload: fakePayload(i)})
	}
	return post
}

// TestResultBatchRejectsBadIndex: one out-of-range index rejects the
// whole batch, over HTTP too, and marks no cell done.
func TestResultBatchRejectsBadIndex(t *testing.T) {
	const cells = 4
	coord, col, srv := newTestCoordinator(t, cells, CoordinatorConfig{})
	for _, bad := range []ResultPost{batch("w", 0, 1, cells), batch("w", -1, 2)} {
		if err := coord.result(bad); err == nil {
			t.Errorf("batch %v accepted", bad.Cells)
		}
		body, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/result", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("batch %v acknowledged over HTTP", bad.Cells)
		}
	}
	if rem := coord.Remaining(); rem != cells {
		t.Fatalf("remaining %d after rejected batches, want %d", rem, cells)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.indices) != 0 {
		t.Fatalf("rejected batches emitted %v", col.indices)
	}
}

// TestResultBatchDropsDuplicates: a repeated index, within one batch
// or across two, is acknowledged and emitted once.
func TestResultBatchDropsDuplicates(t *testing.T) {
	const cells = 5
	coord, col, _ := newTestCoordinator(t, cells, CoordinatorConfig{})
	for _, post := range []ResultPost{batch("a", 1, 0, 1), batch("b", 1, 2, 2), batch("a", 4, 3, 0)} {
		if err := coord.result(post); err != nil {
			t.Fatalf("batch %v: %v", post.Cells, err)
		}
	}
	<-coord.Done()
	checkComplete(t, col, cells)
}

// TestResultBatchKeyMismatchAborts: an element whose key is not the
// coordinator's key for its index aborts the grid when it is emitted,
// after the cells before it.
func TestResultBatchKeyMismatchAborts(t *testing.T) {
	const cells = 4
	var emitted []int
	coord, err := NewCoordinator(CoordinatorConfig{
		Info: GridInfo{Cells: cells},
		Emit: func(index int, key string, payload []byte, errMsg string) error {
			if key != fakeKey(index) {
				return fmt.Errorf("cell %d posted under key %q", index, key)
			}
			emitted = append(emitted, index)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	post := batch("w", 0, 1, 2)
	post.Cells[1].Key = fakeKey(3)
	if err := coord.result(post); err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Fatalf("mismatched batch: err = %v, want one naming cell 1", err)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("grid not aborted")
	}
	if coord.Err() == nil || len(emitted) != 1 || emitted[0] != 0 {
		t.Fatalf("err %v, emitted %v; want an abort after cell 0", coord.Err(), emitted)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/claim", "application/json", strings.NewReader(`{"Worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("claim on an aborted grid: %s", resp.Status)
	}
}

// FuzzResultPost feeds arbitrary bodies to POST /v1/result on a small
// coordinator with one prefilled cell. The handler must never panic;
// a rejected body must leave Remaining unchanged, and an accepted one
// must complete exactly its distinct, not yet done indices.
func FuzzResultPost(f *testing.F) {
	const cells, prefilled = 4, 1
	for _, post := range []ResultPost{batch("w", 0, 2, 3), batch("w", 0, 0, 1), batch("w", 2, cells), batch("w")} {
		body, err := json.Marshal(post)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"Worker":"w","Cells":[{"Index":-1}]}`))
	f.Add([]byte(`{"Cells":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"Index":0,"Key":"k"}`))
	f.Add([]byte(`{"Cells":[{"Index":1e3}]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		coord, err := NewCoordinator(CoordinatorConfig{
			Info:      GridInfo{Cells: cells},
			Chunk:     2,
			Emit:      func(int, string, []byte, string) error { return nil },
			Prefilled: []JournalEntryPayload{{Index: prefilled, Key: fakeKey(prefilled), Payload: fakePayload(prefilled)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		before := coord.Remaining()
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/result", bytes.NewReader(body)))
		after := coord.Remaining()
		if rec.Code != http.StatusOK {
			if after != before {
				t.Fatalf("rejected body (%d) changed remaining %d -> %d", rec.Code, before, after)
			}
			return
		}
		var post ResultPost
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&post); err != nil {
			t.Fatalf("accepted an undecodable body: %v", err)
		}
		fresh := map[int]bool{}
		for _, c := range post.Cells {
			if c.Index < 0 || c.Index >= cells {
				t.Fatalf("accepted out-of-range index %d", c.Index)
			}
			if c.Index != prefilled {
				fresh[c.Index] = true
			}
		}
		if before-after != len(fresh) {
			t.Fatalf("accepted batch completed %d cells, want %d", before-after, len(fresh))
		}
	})
}

// fuzzCoordinator is the small coordinator the protocol decoders are
// fuzzed against: four cells in chunks of two, cell 1 prefilled, so
// its queue holds the spans [0,1) and [2,4).
func fuzzCoordinator(t *testing.T) *Coordinator {
	const cells, prefilled = 4, 1
	coord, err := NewCoordinator(CoordinatorConfig{
		Info:      GridInfo{Cells: cells},
		Chunk:     2,
		Emit:      func(int, string, []byte, string) error { return nil },
		Prefilled: []JournalEntryPayload{{Index: prefilled, Key: fakeKey(prefilled), Payload: fakePayload(prefilled)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// FuzzClaimPost feeds arbitrary bodies to POST /v1/claim, twice on one
// coordinator (the first and second queued spans). The handler must
// never panic and never change Remaining; an accepted claim answers
// Done or a span inside the grid.
func FuzzClaimPost(f *testing.F) {
	for _, body := range []string{`{"Worker":"w"}`, `{}`, `null`, `{"Worker":1}`, `{"Worker":"w"`, `[]`, `{"Worker":"w","Lo":-1}`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		coord := fuzzCoordinator(t)
		cells := coord.Status().Cells
		for range 2 {
			before := coord.Remaining()
			rec := httptest.NewRecorder()
			coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/claim", bytes.NewReader(body)))
			if after := coord.Remaining(); after != before {
				t.Fatalf("claim (%d) changed remaining %d -> %d", rec.Code, before, after)
			}
			if rec.Code != http.StatusOK {
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("rejected claim answered %d, want %d", rec.Code, http.StatusBadRequest)
				}
				return
			}
			var resp ClaimResponse
			if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
				t.Fatalf("accepted claim answered an undecodable body: %v", err)
			}
			if !resp.Done && !(0 <= resp.Lo && resp.Lo < resp.Hi && resp.Hi <= cells) {
				t.Fatalf("accepted claim answered %+v, want Done or a span in [0,%d)", resp, cells)
			}
		}
	})
}

// FuzzHeartbeatPost feeds arbitrary bodies to POST /v1/heartbeat. The
// handler must never panic and never change Remaining; it accepts
// exactly the bodies that decode as a HeartbeatPost.
func FuzzHeartbeatPost(f *testing.F) {
	for _, body := range []string{`{"Worker":"w"}`, `{}`, `null`, `{"Worker":1}`, `{"Worker":"w"`, `""`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		coord := fuzzCoordinator(t)
		before := coord.Remaining()
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/heartbeat", bytes.NewReader(body)))
		if after := coord.Remaining(); after != before {
			t.Fatalf("heartbeat (%d) changed remaining %d -> %d", rec.Code, before, after)
		}
		var hb HeartbeatPost
		decodes := json.NewDecoder(bytes.NewReader(body)).Decode(&hb) == nil
		if accepted := rec.Code == http.StatusOK; accepted != decodes {
			t.Fatalf("heartbeat answered %d for a body that decodes: %v", rec.Code, decodes)
		}
	})
}

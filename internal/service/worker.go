package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Coordinator is the base URL, e.g. "http://127.0.0.1:8077".
	Coordinator string
	// Name is the worker's stable id (default "<hostname>-<pid>").
	Name string
	// Exec computes the cells of one claimed range [lo, hi), handing
	// each completed cell to post (in increasing index order —
	// sweep.Grid.RunRange delivers exactly that). post only queues the
	// cell, and keeps payload until it is sent: the range's cells go to
	// the coordinator as one batch when Exec returns (also when it
	// returns an error), and cells still queued are flushed once per
	// HeartbeatInterval while Exec runs. A post error reports a failed
	// flush and must abort the range.
	Exec func(ctx context.Context, lo, hi int, post func(index int, key string, payload []byte, errMsg string) error) error
	// PollInterval is the wait between claims when the coordinator has
	// nothing to hand out yet (default 200ms).
	PollInterval time.Duration
	// HeartbeatInterval is the liveness ping period (default 2s; keep
	// it well under the coordinator's timeout). It also bounds how long
	// a completed cell waits in the worker before it is posted.
	HeartbeatInterval time.Duration
	// Client is the HTTP client (default: http.DefaultClient with a
	// 30s timeout clone). Requests to a briefly unreachable
	// coordinator are retried a few times before the worker gives up,
	// so a coordinator restart does not orphan its workers.
	Client *http.Client
}

func (cfg *WorkerConfig) defaults() {
	if cfg.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
}

// FetchGrid retrieves the coordinator's grid description — the first
// call a joining worker makes, so it can rebuild the grid locally and
// verify fingerprint and code version before claiming anything.
func FetchGrid(ctx context.Context, coordinator string, client *http.Client) (GridInfo, error) {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	var info GridInfo
	err := getJSON(ctx, client, strings.TrimRight(coordinator, "/")+"/v1/grid", &info)
	return info, err
}

// RunWorker joins the coordinator and executes claimed cell ranges
// until the grid is done (returns nil), ctx is cancelled, or a request
// permanently fails. Heartbeats run on their own goroutine for the
// whole session, and each tick first flushes the cells the current
// range has completed so far.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	cfg.defaults()
	base := strings.TrimRight(cfg.Coordinator, "/")
	batch := &resultBatch{worker: cfg.Name, url: base + "/v1/result", client: cfg.Client}

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		t := time.NewTicker(cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				// A failed flush is kept for the range to report.
				_ = batch.flush(hbCtx)
				// Best effort: a lost ping only risks an early re-queue,
				// which duplicates work but never corrupts results.
				_ = postJSON(hbCtx, cfg.Client, base+"/v1/heartbeat", HeartbeatPost{Worker: cfg.Name}, nil)
			}
		}
	}()

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var grant ClaimResponse
		if err := postJSON(ctx, cfg.Client, base+"/v1/claim", ClaimRequest{Worker: cfg.Name}, &grant); err != nil {
			return fmt.Errorf("service: claim: %w", err)
		}
		switch {
		case grant.Done:
			return nil
		case grant.Wait:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(cfg.PollInterval):
			}
			continue
		}
		err := cfg.Exec(ctx, grant.Lo, grant.Hi, batch.add)
		// Cells completed before a failure are still delivered.
		if ferr := batch.flush(ctx); err == nil {
			err = ferr
		}
		if err != nil {
			return fmt.Errorf("service: range [%d,%d): %w", grant.Lo, grant.Hi, err)
		}
	}
}

// resultBatch queues a worker's completed cells for one POST
// /v1/result. add is Exec's post callback; flush runs at range end
// and on every heartbeat tick. The first failed flush sticks: every
// later add and flush returns it, which aborts the range.
type resultBatch struct {
	worker string
	url    string
	client *http.Client

	sendMu sync.Mutex // serializes flushes, so batches go out in order

	mu    sync.Mutex
	cells []ResultCell
	err   error
}

func (b *resultBatch) add(index int, key string, payload []byte, errMsg string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	b.cells = append(b.cells, ResultCell{Index: index, Key: key, Payload: payload, Err: errMsg})
	return nil
}

// flush posts every queued cell as one batch; with none queued it
// sends nothing.
func (b *resultBatch) flush(ctx context.Context) error {
	b.sendMu.Lock()
	defer b.sendMu.Unlock()
	b.mu.Lock()
	cells, err := b.cells, b.err
	b.cells = nil
	b.mu.Unlock()
	if err != nil || len(cells) == 0 {
		return err
	}
	if err := postJSON(ctx, b.client, b.url, ResultPost{Worker: b.worker, Cells: cells}, nil); err != nil {
		b.mu.Lock()
		b.err = err
		b.mu.Unlock()
		return err
	}
	return nil
}

// retries for transient transport errors (coordinator restarting,
// listener not up yet). HTTP-level errors are never retried: a 4xx/409
// means the coordinator made a decision, not that it was unreachable.
const (
	requestRetries    = 5
	requestRetryDelay = 400 * time.Millisecond
)

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	return doJSON(ctx, client, http.MethodGet, url, nil, out)
}

func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return doJSON(ctx, client, http.MethodPost, url, body, out)
}

func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, out any) error {
	var last error
	for attempt := 0; attempt < requestRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(requestRetryDelay):
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			last = err // transport failure: retry
			continue
		}
		text, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			last = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(text)))
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(text, out)
	}
	return fmt.Errorf("%s unreachable after %d attempts: %w", url, requestRetries, last)
}

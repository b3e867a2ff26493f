package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	spectralfly "repro"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/version"
)

// sweepServer hosts one grid as a coordinator: an HTTP listener for
// workers, the content-addressed cache (cells already stored are
// prefilled and never handed out — a fully warm cache finishes with no
// workers at all). Rows accumulate in deterministic cell order, so the
// finished grid prints the exact document a single-process `sweep` run
// would.
type sweepServer struct {
	spec  sweepSpec
	cells []spectralfly.Cell
	fp    string
	cache *service.Cache
	coord *service.Coordinator

	ln   net.Listener
	srv  *http.Server
	stop sync.Once

	mu   sync.Mutex
	rows []sweepRow
}

// newSweepServer builds the grid from the flags, prefills it from the
// cache and starts serving workers on fl.addr.
func newSweepServer(fl cliFlags) (*sweepServer, error) {
	sp := specFromFlags(fl)
	sw, err := sp.sweep()
	if err != nil {
		return nil, err
	}
	cells, err := sw.Cells()
	if err != nil {
		return nil, err
	}
	keys, err := sw.CellKeys()
	if err != nil {
		return nil, err
	}
	fp, err := sw.Fingerprint()
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	cache, err := service.OpenCache(fl.cacheDir)
	if err != nil {
		return nil, err
	}

	// Every cell already in the cache is complete before any worker
	// joins. This is both the warm-cache fast path and crash recovery:
	// results are cached before they are emitted, so a killed
	// coordinator's progress survives in the store and a restart
	// resumes from the first uncached cell.
	var prefilled []service.JournalEntryPayload
	preDone := make([]bool, len(cells))
	for i, key := range keys {
		if b, ok := cache.Get(key); ok {
			prefilled = append(prefilled, service.JournalEntryPayload{Index: i, Key: key, Payload: b})
			preDone[i] = true
		}
	}

	s := &sweepServer{spec: sp, cells: cells, fp: fp, cache: cache}
	emit := func(index int, key string, payload []byte, errMsg string) error {
		// The coordinator's own key, not the worker's, names the cell
		// in the cache: a post carrying another cell's key would
		// otherwise store this cell's stats under that cell's name.
		if key != keys[index] {
			return fmt.Errorf("serve: cell %d posted under key %q, want %q", index, key, keys[index])
		}
		row := sweepRow{Cell: cells[index]}
		if errMsg != "" {
			row.Error = errMsg
		} else {
			p, err := sweep.DecodePayload(payload)
			if err != nil {
				return fmt.Errorf("serve: cell %d payload: %w", index, err)
			}
			row.Stats, row.Saturation = p.Stats, p.Saturation
			if !preDone[index] {
				cache.Put(keys[index], payload)
			}
		}
		s.mu.Lock()
		s.rows = append(s.rows, row)
		s.mu.Unlock()
		return nil
	}

	coord, err := service.NewCoordinator(service.CoordinatorConfig{
		Info: service.GridInfo{
			Spec:        specJSON,
			Cells:       len(cells),
			Fingerprint: fp,
			Version:     version.Stamp(),
		},
		Chunk:            fl.chunk,
		HeartbeatTimeout: fl.heartbeat,
		Emit:             emit,
		Prefilled:        prefilled,
	})
	if err != nil {
		return nil, err
	}
	s.coord = coord

	ln, err := net.Listen("tcp", fl.addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: coord.Handler()}
	go s.srv.Serve(ln)
	return s, nil
}

// addr returns the coordinator's listen address (resolves ":0").
func (s *sweepServer) addr() string { return s.ln.Addr().String() }

// snapshot returns the rows emitted so far, in cell order.
func (s *sweepServer) snapshot() []sweepRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sweepRow(nil), s.rows...)
}

// close stops the listener (idempotent).
// In-flight responses get a short drain so the worker that posted the
// final result reads its acknowledgement instead of a reset socket.
func (s *sweepServer) close() {
	s.stop.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.srv.Shutdown(ctx)
		s.srv.Close()
	})
}

// wait blocks until every cell is emitted, an emit fails, or ctx is
// cancelled, then shuts the server down and returns the rows. After
// completion it lingers briefly until every connected worker has been
// told the grid is done (workers learn that from their next claim).
func (s *sweepServer) wait(ctx context.Context) ([]sweepRow, error) {
	select {
	case <-s.coord.Done():
	case <-ctx.Done():
		s.close()
		return nil, ctx.Err()
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.coord.Lingering() > 0 && time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(10 * time.Millisecond)
	}
	s.close()
	if err := s.coord.Err(); err != nil {
		return nil, err
	}
	return s.snapshot(), nil
}

// runServe hosts the coordinator until the grid completes (emitting
// the same "sweep" result rows a single-process run would) or ^C.
func runServe(fl cliFlags) (any, error) {
	s, err := newSweepServer(fl)
	if err != nil {
		return nil, err
	}
	defer s.close()
	fmt.Fprintf(os.Stderr, "serve: %d cells (%d prefilled from cache at %s)\nserve: fingerprint %s\nserve: listening on http://%s\n",
		len(s.cells), len(s.cells)-s.coord.Remaining(), s.cache.Dir(), s.fp, s.addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rows, err := s.wait(ctx)
	if err != nil {
		if ctx.Err() != nil {
			rows = s.snapshot()
			fmt.Fprintf(os.Stderr, "serve: interrupted after %d cells (cached results will prefill a restart)\n", len(rows))
			return rows, nil
		}
		return nil, err
	}
	return rows, nil
}

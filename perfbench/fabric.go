package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/routing"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/traffic"
	"repro/internal/version"
)

// fabric is one loopback deployment of a grid, wired the way `serve`
// and `submit` wire it: a fresh on-disk service.Cache, a
// service.Coordinator on 127.0.0.1 that prefills from the cache and
// stores each emitted cell, and in-process service.RunWorker loops that
// execute claimed ranges with Grid.RunRange.
type fabric struct {
	b       *bench
	grid    *sweep.Grid
	opts    sweep.Options // the workers' RunRange options
	workers int
	dir     string
	cache   *tracedCache
	keys    []string
	fp      string
	cells   []sweep.Cell
}

func newFabric(b *bench, g *sweep.Grid, opts sweep.Options, workers, parent int) (*fabric, error) {
	dir, err := os.MkdirTemp(outDir, "fabric-")
	if err != nil {
		return nil, err
	}
	f := &fabric{b: b, grid: g, opts: opts, workers: workers, dir: dir, cells: g.Cells()}
	var c *service.Cache
	b.t.do("service.OpenCache", parent, func() { c, err = service.OpenCache(dir) })
	if err == nil {
		f.cache = &tracedCache{t: b.t, c: c}
		b.t.do("sweep.Grid.ContentKeys", parent, func() { f.keys, err = g.ContentKeys(opts.Workers) })
	}
	if err == nil {
		f.fp, err = g.Fingerprint(opts.Workers)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return f, nil
}

func (f *fabric) close() { os.RemoveAll(f.dir) }

// served is one coordinator instance and the rows it emitted.
type served struct {
	coord *service.Coordinator
	srv   *http.Server
	url   string
	done  chan struct{} // closed when Serve returns
	rows  []sweep.Result
}

// serve prefills a coordinator from the cache and starts serving it.
// Emitted cells are decoded into rows; cells that were not prefilled
// are stored in the cache first, as `serve` does.
func (f *fabric) serve(parent int) (*served, error) {
	f.cache.parent = parent
	var prefilled []service.JournalEntryPayload
	pre := make([]bool, len(f.keys))
	for i, key := range f.keys {
		if p, ok := f.cache.Get(key); ok {
			prefilled = append(prefilled, service.JournalEntryPayload{Index: i, Key: key, Payload: p})
			pre[i] = true
		}
	}
	s := &served{done: make(chan struct{})}
	emit := func(index int, key string, payload []byte, errMsg string) error {
		row := sweep.Result{Cell: f.cells[index]}
		if errMsg != "" {
			row.Err = errors.New(errMsg)
		} else {
			p, err := decodePayload(f.b, payload, parent)
			if err != nil {
				return fmt.Errorf("cell %d payload: %w", index, err)
			}
			row.Stats, row.Saturation = p.Stats, p.Saturation
			if !pre[index] {
				f.cache.Put(key, payload)
			}
		}
		s.rows = append(s.rows, row)
		return nil
	}
	var err error
	f.b.t.do("service.NewCoordinator", parent, func() {
		s.coord, err = service.NewCoordinator(service.CoordinatorConfig{
			Info: service.GridInfo{Cells: len(f.keys), Fingerprint: f.fp, Version: version.Stamp()},
			Emit: emit, Prefilled: prefilled,
		})
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.coord.Handler()}
	go func() {
		s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// stop shuts the listener down and waits for Serve to return.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.srv.Close()
	<-s.done
}

// work runs f.workers RunWorker loops against s until every cell is
// emitted and every worker has exited. It returns the seconds from the
// first worker start to the last result emitted.
func (f *fabric) work(s *served, parent int) (float64, error) {
	defer s.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Each worker holds up to two connections: its claim/result loop
	// and its heartbeats.
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * f.workers}
	defer transport.CloseIdleConnections()
	client := &http.Client{Timeout: 30 * time.Second, Transport: tracedTransport{t: f.b.t, base: transport}}
	errs := make([]error, f.workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := f.b.t.start("service.RunWorker", parent)
			defer f.b.t.end(id)
			errs[i] = service.RunWorker(withSpan(ctx, id), service.WorkerConfig{
				Coordinator:       s.url,
				Name:              fmt.Sprintf("perfbench-%d", i),
				Exec:              f.exec,
				PollInterval:      20 * time.Millisecond,
				HeartbeatInterval: 100 * time.Millisecond,
				Client:            client,
			})
		}()
	}
	exited := make(chan struct{})
	go func() {
		wg.Wait()
		close(exited)
	}()
	select {
	case <-s.coord.Done():
	case <-exited:
	}
	wall := time.Since(t0).Seconds()
	<-exited
	if err := s.coord.Err(); err != nil {
		return 0, err
	}
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	if len(s.rows) != len(f.cells) {
		return 0, fmt.Errorf("coordinator emitted %d of %d cells", len(s.rows), len(f.cells))
	}
	return wall, nil
}

// exec is the worker's range executor, as `submit` builds it: RunRange
// over the claimed cells, posting each encoded payload in index order.
func (f *fabric) exec(ctx context.Context, lo, hi int, post func(int, string, []byte, string) error) error {
	id := f.b.t.start("service.Exec", spanOf(ctx))
	defer f.b.t.end(id)
	return f.grid.RunRange(ctx, f.opts, lo, hi, func(res sweep.Result) error {
		var payload []byte
		var msg string
		if res.Err != nil {
			msg = res.Err.Error()
		} else {
			var err error
			if payload, err = encodePayload(f.b, res, id); err != nil {
				return err
			}
		}
		return post(res.Index, f.keys[res.Index], payload, msg)
	})
}

// warm replays the grid from the cache the cold pass filled: the
// coordinator prefills every cell and emits it during construction, so
// no worker is needed and nothing is simulated. It returns the seconds
// from the first cache read to the last result emitted.
func (f *fabric) warm(parent int) (float64, []sweep.Result, error) {
	t0 := time.Now()
	s, err := f.serve(parent)
	if err != nil {
		return 0, nil, err
	}
	wall := time.Since(t0).Seconds()
	defer s.stop()
	select {
	case <-s.coord.Done():
	default:
		return 0, nil, fmt.Errorf("warm replay left %d cells uncached", s.coord.Remaining())
	}
	return wall, s.rows, nil
}

// settleDisk fsyncs dir, which commits its file system's journal
// (the cache files a previous pass removed among it), so each timed
// pass starts from the same journal state instead of meeting a commit
// at a random point.
func settleDisk(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// fabricLoopback serves a grid of thousands of tiny cells over
// loopback: a cold pass against a fresh cache, then warm replays.
// Every pass sets up its own cache and coordinator.
type fabricLoopback struct {
	grid   *sweep.Grid
	f      *fabric // the set-up the next pass consumes
	s      *served
	warms  []float64
	inproc []byte // the same grid's rows from an in-process sweep
}

func newFabricLoopback() workload { return &fabricLoopback{} }

func (w *fabricLoopback) freshSetup() bool { return true }

// fabricLoads is the 64-point load axis: 0.015 to 0.96.
func fabricLoads() []float64 {
	loads := make([]float64, 64)
	for i := range loads {
		loads[i] = 0.015 * float64(i+1)
	}
	return loads
}

func (w *fabricLoopback) setup(b *bench, parent int) error {
	if w.s != nil {
		// A set-up no pass consumed.
		w.s.stop()
		w.f.close()
		w.f, w.s = nil, nil
	}
	insts, err := buildInstances(b, parent, quickInstances)
	if err != nil {
		return err
	}
	g := &sweep.Grid{
		Instances:   insts,
		Policies:    []routing.Policy{routing.Minimal, routing.UGALL, routing.Valiant},
		Patterns:    traffic.SyntheticPatterns,
		Loads:       fabricLoads(),
		Measure:     sweep.MeasureLoad,
		Ranks:       64,
		MsgsPerRank: 2,
		Seed:        b.gridSeed,
		Keys:        benchKeys,
	}
	workers := b.nproc
	f, err := newFabric(b, g, sweep.Options{Parallel: 1}, workers, parent)
	if err != nil {
		return err
	}
	s, err := f.serve(parent)
	if err != nil {
		f.close()
		return err
	}
	w.grid, w.f, w.s = g, f, s
	return nil
}

// warmReplays is how many warm replays follow each cold pass.
const warmReplays = 6

func (w *fabricLoopback) pass(b *bench, parent int) (float64, []sweep.Result, error) {
	f, s := w.f, w.s
	w.f, w.s = nil, nil
	defer f.close()
	if err := settleDisk(f.dir); err != nil {
		return 0, nil, err
	}
	wall, err := f.work(s, parent)
	if err != nil {
		return 0, nil, err
	}
	cold := s.rows
	want := resultBytes(cold)
	if err := settleDisk(f.dir); err != nil {
		return 0, nil, err
	}
	for i := 0; i < warmReplays; i++ {
		wt, rows, err := f.warm(parent)
		if err != nil {
			return 0, nil, err
		}
		w.warms = append(w.warms, wt)
		b.expect(bytes.Equal(resultBytes(rows), want), "warm replay differs from the cold pass")
	}
	if w.inproc == nil {
		rows, err := w.grid.Collect(context.Background(), sweep.Options{Parallel: b.nproc})
		if err != nil {
			return 0, nil, err
		}
		w.inproc = resultBytes(rows)
	}
	b.expect(bytes.Equal(w.inproc, want), "loopback output differs from the in-process sweep")
	return wall, cold, nil
}

func (w *fabricLoopback) warm(b *bench, rows []sweep.Result) (float64, error) {
	b.samples["warm_s"] = w.warms
	return median(w.warms), nil
}

func (w *fabricLoopback) panel(b *bench, rows []sweep.Result) error {
	return runPanel(b, panelInput{specs: quickInstances, grid: w.grid, p1: sweep.Options{Parallel: 1}, rows: rows})
}

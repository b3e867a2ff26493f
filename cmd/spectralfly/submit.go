package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"

	spectralfly "repro"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/version"
)

// sweepExec adapts the façade's ranged execution to the worker
// protocol: each claimed [lo, hi) runs through RunRange, posting one
// encoded payload per cell in increasing index order — exactly the
// prefix contract the coordinator's re-emit path assumes. Failed
// cells post their error string instead of a payload; the coordinator
// reports them as rows but never caches them.
func sweepExec(sw *spectralfly.Sweep, keys []string) func(ctx context.Context, lo, hi int, post func(int, string, []byte, string) error) error {
	return func(ctx context.Context, lo, hi int, post func(int, string, []byte, string) error) error {
		return sw.RunRange(ctx, lo, hi, func(res spectralfly.CellResult) error {
			var payload []byte
			var errMsg string
			if res.Err != nil {
				errMsg = res.Err.Error()
			} else {
				b, err := sweep.EncodePayload(res)
				if err != nil {
					return err
				}
				payload = b
			}
			return post(res.Index, keys[res.Index], payload, errMsg)
		})
	}
}

// joinGrid fetches the coordinator's grid, rebuilds it locally and
// verifies that both processes would compute the same thing: the code
// version stamps must match (a skew would poison the shared
// content-addressed cache) and so must the grid fingerprints (the
// worker computes cells from its own rebuild, so any drift between
// spec and rebuild means wrong cells).
func joinGrid(ctx context.Context, coord string) (*spectralfly.Sweep, []string, error) {
	info, err := service.FetchGrid(ctx, coord, nil)
	if err != nil {
		return nil, nil, err
	}
	if info.Version != version.Stamp() {
		return nil, nil, fmt.Errorf("version skew: coordinator runs %q, this binary is %q", info.Version, version.Stamp())
	}
	var sp sweepSpec
	if err := json.Unmarshal(info.Spec, &sp); err != nil {
		return nil, nil, fmt.Errorf("bad grid spec from coordinator: %w", err)
	}
	sw, err := sp.sweep()
	if err != nil {
		return nil, nil, err
	}
	fp, err := sw.Fingerprint()
	if err != nil {
		return nil, nil, err
	}
	if fp != info.Fingerprint {
		return nil, nil, fmt.Errorf("grid fingerprint mismatch: local rebuild %s, coordinator %s", fp, info.Fingerprint)
	}
	keys, err := sw.CellKeys()
	if err != nil {
		return nil, nil, err
	}
	return sw, keys, nil
}

// runSubmit joins the coordinator at -coord as a worker and computes
// claimed cell ranges until the grid is done or ^C. Results go to the
// coordinator, not stdout. -parallel, -workers and a local
// -cache/-cache-dir apply per worker.
func runSubmit(fl cliFlags) error {
	if fl.coord == "" {
		return fmt.Errorf("submit needs -coord, e.g. -coord http://127.0.0.1:8077")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sw, keys, err := joinGrid(ctx, fl.coord)
	if err != nil {
		return err
	}
	applyLocalKnobs(sw, fl)
	fmt.Fprintf(os.Stderr, "submit: joined %s (%d cells)\n", fl.coord, len(keys))
	return service.RunWorker(ctx, service.WorkerConfig{
		Coordinator: fl.coord,
		Exec:        sweepExec(sw, keys),
	})
}

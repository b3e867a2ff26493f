package runner

import (
	"context"
	"sync"
)

// RunStream calls run(i) for every index in [0, n) over the worker
// pool and then emit(i) in index order, as soon as run(i) and every
// predecessor have returned — the ordered fan-out behind the
// declarative sweep API. run must be safe to call concurrently for
// distinct indices and keeps its own results (typically in a slice
// indexed by i); emit observes every write run(i) made. emit is never
// called concurrently with itself, and the emitted sequence is always
// a prefix of the index order, so a consumer observes exactly the same
// indices in exactly the same order for any worker count.
//
// Cancelling ctx stops the stream at index granularity: no new index
// is scheduled, runs already in flight finish (they are not emitted),
// and RunStream returns ctx.Err(). An error from emit stops the stream
// the same way and is returned.
func (r *Runner) RunStream(ctx context.Context, n int, run func(i int), emit func(i int) error) error {
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			run(i)
			if err := emit(i); err != nil {
				return err
			}
		}
		return nil
	}

	done := make([]bool, n)
	work := make(chan int)
	// completed is buffered to n so a worker can always report without
	// blocking — that is what lets the scheduler below shut down with a
	// plain close+wait on cancellation.
	completed := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				run(i)
				completed <- i
			}
		}()
	}

	next, delivered := 0, 0
	var err error
loop:
	for delivered < n {
		// Check the context before every scheduling decision: the select
		// below chooses uniformly among ready cases, so without this a
		// cancelled stream could still win the feed or drain arm and
		// schedule or emit after cancellation.
		if err = ctx.Err(); err != nil {
			break loop
		}
		// Only offer work while indices remain; a nil channel parks that
		// select arm.
		var feed chan int
		if next < n {
			feed = work
		}
		select {
		case feed <- next:
			next++
		case i := <-completed:
			done[i] = true
			for delivered < n && done[delivered] {
				if err = emit(delivered); err != nil {
					break loop
				}
				delivered++
				// Re-check the context between deliveries: emit itself may
				// have cancelled, and when every remaining index has already
				// completed this loop would otherwise drain them all.
				if err = ctx.Err(); err != nil {
					break loop
				}
			}
		case <-ctx.Done():
			err = ctx.Err()
			break loop
		}
	}
	close(work)
	wg.Wait()
	return err
}

package runner

import (
	"context"
	"errors"
	"testing"
	"time"
)

const streamN = 12

// squares returns a run func that stores i*i at index i. Low indices
// take longest, so on a pool they complete out of order and the stream
// must hold them back to emit in index order.
func squares(out []int) func(int) {
	return func(i int) {
		time.Sleep(time.Duration(len(out)-i) * 100 * time.Microsecond)
		out[i] = i * i
	}
}

// TestRunStreamInOrder checks that the stream emits every index, in
// index order, each after its run has completed.
func TestRunStreamInOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out := make([]int, streamN)
		var got []int
		err := New(workers).RunStream(context.Background(), streamN, squares(out), func(i int) error {
			if out[i] != i*i {
				t.Errorf("workers=%d: index %d emitted before its run completed", workers, i)
			}
			got = append(got, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != streamN {
			t.Fatalf("workers=%d: emitted %d of %d indices", workers, len(got), streamN)
		}
		for pos, i := range got {
			if i != pos {
				t.Fatalf("workers=%d: emission order broken at position %d: got index %d", workers, pos, i)
			}
		}
	}
}

// TestRunStreamCancel cancels mid-stream and checks the contract: a
// prompt return with ctx.Err(), and the emitted indices a strict prefix
// of the index order.
func TestRunStreamCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var emitted []int
	err := New(2).RunStream(ctx, streamN, squares(make([]int, streamN)), func(i int) error {
		emitted = append(emitted, i)
		if len(emitted) == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(emitted) >= streamN {
		t.Fatalf("cancellation emitted all %d indices", len(emitted))
	}
	for pos, i := range emitted {
		if i != pos {
			t.Fatalf("partial emission is not a prefix: position %d has index %d", pos, i)
		}
	}
}

// TestRunStreamCancelEveryPrefix: for EVERY prefix length k, a stream
// cancelled by its k-th emission has emitted exactly the indices 0..k-1
// — the prefix guarantee the distributed fabric's resume journal is
// built on (a killed sweep's journal is always a clean prefix of cell
// order, so a restart can replay it from the cache and continue).
func TestRunStreamCancelEveryPrefix(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for k := 1; k <= streamN; k++ {
			ctx, cancel := context.WithCancel(context.Background())
			out := make([]int, streamN)
			var got []int
			err := New(workers).RunStream(ctx, streamN, squares(out), func(i int) error {
				got = append(got, out[i])
				if len(got) == k {
					cancel()
				}
				return nil
			})
			cancel()
			// Cancelling on the final emission may legitimately race the
			// stream's own completion; every earlier k must report the
			// cancellation.
			if k < streamN && !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d k=%d: err = %v, want context.Canceled", workers, k, err)
			}
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d k=%d: err = %v", workers, k, err)
			}
			if len(got) != k {
				t.Fatalf("workers=%d k=%d: emitted %d indices after cancelling", workers, k, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Errorf("workers=%d k=%d: emitted prefix diverges at %d", workers, k, i)
				}
			}
		}
	}
}

// TestRunStreamPreCancelled never runs or emits an index when the
// context is already dead.
func TestRunStreamPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		runs, calls := 0, 0
		err := New(workers).RunStream(ctx, streamN, func(int) { runs++ }, func(int) error { calls++; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if runs != 0 || calls != 0 {
			t.Errorf("workers=%d: %d runs and %d emissions on a dead context", workers, runs, calls)
		}
	}
}

// TestRunStreamEmitError propagates a consumer error and stops the
// stream.
func TestRunStreamEmitError(t *testing.T) {
	sentinel := errors.New("consumer full")
	for _, workers := range []int{1, 3} {
		calls := 0
		err := New(workers).RunStream(context.Background(), streamN, squares(make([]int, streamN)), func(int) error {
			calls++
			if calls == 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if calls != 3 {
			t.Errorf("workers=%d: emit called %d times after erroring at 3", workers, calls)
		}
	}
}

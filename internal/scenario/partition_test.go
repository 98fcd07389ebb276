package scenario

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hybridmig/hybridmig/internal/sim"
)

// TestParallelMergeShardErrors pins the deterministic fold of per-shard drain
// errors: deadline overruns merge into one (earliest stuck event, summed
// pending and live work, the scenario's horizon), and any other error wins
// over them — the first by shard index.
func TestParallelMergeShardErrors(t *testing.T) {
	errBoom, errLate := errors.New("boom"), errors.New("late")
	cases := []struct {
		name string
		errs []error
		want error
	}{
		{"none", []error{nil, nil, nil}, nil},
		{
			"merged-deadline",
			[]error{
				nil, // this shard completed before the horizon
				&sim.DeadlineError{Horizon: 10, Next: 20, Pending: 2, Live: 1},
				&sim.DeadlineError{Horizon: 10, Next: 15, Pending: 1, Live: 2},
			},
			&sim.DeadlineError{Horizon: 10, Next: 15, Pending: 3, Live: 3},
		},
		{
			"first-non-deadline-wins",
			[]error{
				&sim.DeadlineError{Horizon: 10, Next: 12, Pending: 1},
				nil,
				errBoom,
				errLate,
			},
			errBoom,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := mergeShardErrors(c.errs, 10); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("mergeShardErrors = %#v, want %#v", got, c.want)
			}
		})
	}
}

// TestParallelForEachPanic pins ForEach's panic contract: a panic at one
// index stops only its worker, every other index still runs exactly once,
// the panic is re-raised in the caller after the workers stop, and no worker
// goroutine outlives the call.
func TestParallelForEachPanic(t *testing.T) {
	const n, bad = 64, 17
	var runs [n]atomic.Int32
	baseline := runtime.NumGoroutine()
	got := func() (p any) {
		defer func() { p = recover() }()
		ForEach(n, 4, func(i int) {
			runs[i].Add(1)
			if i == bad {
				panic("cell 17")
			}
		})
		return nil
	}()
	if got != "cell 17" {
		t.Fatalf("recovered %v, want the cell's panic re-raised", got)
	}
	for i := range runs {
		if c := runs[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times, want 1", i, c)
		}
	}
	// The workers are joined before ForEach re-raises; allow brief settling
	// for goroutines whose wg.Done has run but whose stacks have not unwound.
	for try := 0; try < 100 && runtime.NumGoroutine() > baseline; try++ {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutines %d > baseline %d after ForEach: worker leaked", g, baseline)
	}
}

package scenario

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// panicOnSample breaks an invariant inside a simulation process: the first
// degradation sample the observer/sampler process emits panics.
var panicOnSample = trace.ObserverFunc(func(e trace.Event) {
	if e.Kind == trace.KindSample {
		panic("observer: bad sample")
	}
})

// waitNoLeak polls until the goroutine count is back to at most before+2:
// the runtime reclaims exited process coroutines asynchronously.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; ; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkProcPanic runs s with RunContext and requires the sampler's panic to
// come back as a *sim.ProcPanicError with no Result and no leaked goroutine.
func checkProcPanic(t *testing.T, s *Scenario) {
	t.Helper()
	before := runtime.NumGoroutine()
	res, err := s.RunContext(context.Background())
	if res != nil {
		t.Fatal("a run whose process panicked returned a Result")
	}
	var pe *sim.ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *sim.ProcPanicError: %v", err, err)
	}
	if pe.Proc != "observer/sampler" || pe.Value != "observer: bad sample" {
		t.Fatalf("ProcPanicError = {%q, %v}, want the sampler's panic", pe.Proc, pe.Value)
	}
	waitNoLeak(t, before)
}

// TestRunContextProcPanic: on the serial path a process panic is a typed
// error, not a crash, and the next run is unaffected.
func TestRunContextProcPanic(t *testing.T) {
	checkProcPanic(t, quick(WithNodes(4), WithObserver(panicOnSample), WithSampleInterval(0.5)))
	if _, err := quick(WithNodes(4), WithSampleInterval(0.5)).Run(); err != nil {
		t.Fatalf("clean run after a panicked one: %v", err)
	}
}

// TestParallelProcPanic: the same panic inside every shard's sampler comes
// back through the shard error merge as a *sim.ProcPanicError.
func TestParallelProcPanic(t *testing.T) {
	build := func(opts ...Option) *Scenario {
		s := New(append([]Option{WithNodes(8), WithPreseededImages(), WithParallel(2), WithSampleInterval(0.5)}, opts...)...)
		for i, name := range []string{"a", "b", "c"} {
			s.AddVM(VMSpec{Name: name, Node: 2 * i, Approach: cluster.OurApproach, Workload: Rewrite(nil)}).
				MigrateAt(name, 2*i+1, 2)
		}
		return s
	}
	s := build(WithObserver(panicOnSample))
	if planOf(t, s) == nil {
		t.Fatal("planner vetoed the scenario: the sharded path is not exercised")
	}
	checkProcPanic(t, s)
	if _, err := build().Run(); err != nil {
		t.Fatalf("clean run after a panicked one: %v", err)
	}
}

package scenario

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sched"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// TestUnknownWorkloadKindRejected is the de-panic regression: an out-of-range
// WorkloadKind must surface as a validation error wrapping
// ErrInvalidScenario, never reach startWorkload's dispatch, and never panic.
func TestUnknownWorkloadKindRejected(t *testing.T) {
	for _, kind := range []WorkloadKind{WorkloadKind(99), WorkloadKind(-1)} {
		s := New(WithNodes(4)).
			AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach,
				Workload: WorkloadSpec{Kind: kind}}).
			MigrateAt("vm0", 1, 3)
		res, err := s.Run()
		if err == nil {
			t.Fatalf("kind %d: accepted", int(kind))
		}
		if !errors.Is(err, ErrInvalidScenario) {
			t.Fatalf("kind %d: error %v does not wrap ErrInvalidScenario", int(kind), err)
		}
		if res != nil {
			t.Fatalf("kind %d: validation failure returned a result", int(kind))
		}
	}
}

// TestRunContextBackgroundIdentity pins that the cancellation plumbing is
// invisible when unused: Run and RunContext(Background) produce bit-identical
// seed captures (Background has no Done channel, so no interrupt hook is
// installed and the event loop is untouched).
func TestRunContextBackgroundIdentity(t *testing.T) {
	a, err := quick(WithNodes(4), WithSeedCapture()).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := quick(WithNodes(4), WithSeedCapture()).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.SeedCapture != b.SeedCapture {
		t.Fatalf("Run and RunContext(Background) diverge:\n%s\nvs\n%s", a.SeedCapture, b.SeedCapture)
	}
}

// TestRunContextPreCanceled: a context canceled before RunContext is called
// must fail fast with a *CanceledError and run nothing.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := quick(WithNodes(4)).RunContext(ctx)
	if res != nil {
		t.Fatal("pre-canceled run returned a result")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a *CanceledError: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CanceledError does not unwrap to context.Canceled: %v", err)
	}
	if msg, want := ce.Error(), "scenario: run canceled at t=0 s: context canceled"; msg != want {
		t.Fatalf("CanceledError says %q, want %q", msg, want)
	}
}

// campaignScenario builds a long-running serial campaign so a mid-run cancel
// has plenty of events left to interrupt.
func campaignScenario(opts ...Option) *Scenario {
	s := New(append([]Option{WithNodes(8), WithHorizon(600)}, opts...)...)
	steps := make([]Step, 0, 6)
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		s.AddVM(VMSpec{Name: name, Node: 0, Approach: cluster.OurApproach, Workload: Rewrite(nil)})
		steps = append(steps, Step{VM: name, Dst: 1})
	}
	return s.Campaign(1, sched.Serial{}, steps...)
}

// TestRunContextCancelMidRun cancels from inside an observer callback (a
// deterministic mid-run instant), and requires: a typed *CanceledError that
// unwraps to the cancellation cause, a partial Result frozen at the
// interruption clock, and no leaked process goroutines.
func TestRunContextCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()

	errBoom := errors.New("boom")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	events := 0
	obs := trace.ObserverFunc(func(e trace.Event) {
		events++
		if events == 20 {
			cancel(errBoom)
		}
	})
	res, err := campaignScenario(WithObserver(obs)).RunContext(ctx)
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a *CanceledError: %v", err, err)
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("CanceledError does not unwrap to the cancel cause: %v", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside the cancellation error")
	}
	if res.Clock <= 0 || res.Clock != ce.Clock {
		t.Fatalf("partial result clock %g does not match error clock %g", res.Clock, ce.Clock)
	}
	// The full campaign runs for hundreds of simulated seconds; an interrupt
	// at the 20th trace event must have stopped it far earlier.
	if res.Clock > 100 {
		t.Fatalf("run was not interrupted promptly (clock %g s)", res.Clock)
	}

	// Shutdown must have released every parked process.
	waitNoLeak(t, before)
}

// TestRunContextCancelParallel drives the sharded kernel through the same
// observer-triggered cancel: every shard engine carries the interrupt hook,
// so the cancel lands regardless of which shard is running.
func TestRunContextCancelParallel(t *testing.T) {
	// Independent per-VM migrations (no campaign, distinct node pairs) so the
	// component planner actually shards; preseeded to avoid the shared-origin
	// veto.
	// A long rewrite (many short iterations) keeps each shard's engine busy
	// for thousands of events, so the interrupt poll (every 1024 events)
	// fires well before the shard drains.
	long := params.DefaultRewrite()
	long.Iterations = 4096
	long.Interval = 0.1
	build := func(opts ...Option) *Scenario {
		s := New(append([]Option{WithNodes(8), WithHorizon(600), WithPreseededImages(), WithParallel(2)}, opts...)...)
		s.AddVM(VMSpec{Name: "a", Node: 0, Approach: cluster.OurApproach, Workload: Rewrite(&long)}).
			MigrateAt("a", 1, 2)
		s.AddVM(VMSpec{Name: "b", Node: 2, Approach: cluster.OurApproach, Workload: Rewrite(&long)}).
			MigrateAt("b", 3, 2)
		s.AddVM(VMSpec{Name: "c", Node: 4, Approach: cluster.OurApproach, Workload: Rewrite(&long)}).
			MigrateAt("c", 5, 2)
		return s
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	obs := trace.ObserverFunc(func(e trace.Event) {
		events++
		if events == 5 {
			cancel()
		}
	})
	res, err := build(WithObserver(obs)).RunContext(ctx)
	if err == nil {
		t.Fatal("canceled parallel run reported success")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a *CanceledError: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CanceledError does not unwrap to context.Canceled: %v", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside the cancellation error")
	}
}

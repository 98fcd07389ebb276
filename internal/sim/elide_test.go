package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// stepUntil is the event-at-a-time reference for RunUntil: the same loop
// conditions and interrupt polls, firing each event with Step, under which
// Sleep never takes its wake-up in place.
func stepUntil(e *Engine, limit Time) error {
	for len(e.queue) > 0 && !e.stopped && e.perr == nil && e.queue[0].t <= limit {
		if e.interrupted() {
			return ErrInterrupted
		}
		e.Step()
	}
	if e.perr != nil {
		return e.perr
	}
	if e.stopped {
		return ErrStopped
	}
	return nil
}

// TestSleepElidesOwnWake: a lone sleeper under Run takes every wake-up in
// place, ends at the same clock and sequence number as under Step, and
// Dispatches+Elided under Run equals Dispatches under Step.
func TestSleepElidesOwnWake(t *testing.T) {
	run := func(drive func(e *Engine) error) (Stats, Time, uint64) {
		e := New()
		e.Go("sleeper", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(0.5)
			}
		})
		e.After(0.25, func() {})
		if err := drive(e); err != nil {
			t.Fatal(err)
		}
		return e.Stats(), e.Now(), e.seq
	}
	got, gotNow, gotSeq := run((*Engine).Run)
	ref, refNow, refSeq := run(func(e *Engine) error { return stepUntil(e, math.Inf(1)) })
	// The spawn dispatch and the wake behind the timer at 0.25 take the
	// round trip; the other nine wakes are elided.
	if want := (Stats{Callbacks: 1, Dispatches: 2, Elided: 9}); got != want {
		t.Errorf("Run stats = %+v, want %+v", got, want)
	}
	if want := (Stats{Callbacks: 1, Dispatches: 11}); ref != want {
		t.Errorf("Step stats = %+v, want %+v", ref, want)
	}
	if gotNow != 5 || refNow != 5 {
		t.Errorf("clock = %g (Run), %g (Step), want 5", gotNow, refNow)
	}
	if gotSeq != refSeq || gotSeq != 12 {
		t.Errorf("next seq = %d (Run), %d (Step), want 12", gotSeq, refSeq)
	}
}

// TestSleepElisionInterruptStride: with an interrupt hook installed, the
// check runs after the same number of fired events and at the same clock
// whether the wakes are elided or not, and a run made only of elidable
// sleeps still stops with ErrInterrupted, its process parked until
// Shutdown.
func TestSleepElisionInterruptStride(t *testing.T) {
	type poll struct {
		fired uint64
		now   Time
	}
	run := func(drive func(e *Engine) error) ([]poll, *Engine, error) {
		e := New()
		var polls []poll
		e.Go("sleeper", func(p *Proc) {
			for {
				p.Sleep(0.5)
			}
		})
		e.Go("ticker", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(3)
			}
		})
		e.SetInterrupt(7, func() bool {
			s := e.Stats()
			polls = append(polls, poll{s.Callbacks + s.Dispatches + s.Elided, e.Now()})
			return len(polls) == 12
		})
		err := drive(e)
		return polls, e, err
	}
	got, e, err := run((*Engine).Run)
	ref, eRef, errRef := run(func(e *Engine) error { return stepUntil(e, math.Inf(1)) })
	if !errors.Is(err, ErrInterrupted) || !errors.Is(errRef, ErrInterrupted) {
		t.Fatalf("err = %v (Run), %v (Step), want ErrInterrupted", err, errRef)
	}
	if len(got) != len(ref) {
		t.Fatalf("%d polls under Run, %d under Step", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] || got[i].fired != uint64(7*i+6) {
			t.Fatalf("poll %d: Run %+v, Step %+v, want %d events fired", i, got[i], ref[i], 7*i+6)
		}
	}
	if e.Stats().Elided == 0 {
		t.Fatal("no wake was elided")
	}
	if e.Now() != eRef.Now() || e.LiveProcs() != 1 || e.PendingEvents() != 1 {
		t.Fatalf("after interrupt: clock %g (Step %g), %d live, %d pending; want 1 live, 1 pending",
			e.Now(), eRef.Now(), e.LiveProcs(), e.PendingEvents())
	}
	e.Shutdown()
	eRef.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
}

// TestSleepPastHorizonParks: a sleep past the RunUntil limit is never taken
// in place; the process stays parked and Drain names its wake time.
func TestSleepPastHorizonParks(t *testing.T) {
	e := New()
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(1)
		p.Sleep(10)
	})
	err := e.Drain(5)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("Drain = %v, want *DeadlineError", err)
	}
	if *de != (DeadlineError{Horizon: 5, Next: 11, Pending: 1, Live: 1}) {
		t.Fatalf("DeadlineError = %+v, want {5 11 1 1}", *de)
	}
	if e.Now() != 1 || e.Stats().Elided != 1 {
		t.Fatalf("clock %g, %d elided; want 1, 1", e.Now(), e.Stats().Elided)
	}
	if err := e.RunUntil(11); err != nil || e.Now() != 11 || e.LiveProcs() != 0 {
		t.Fatalf("RunUntil(11) = %v, clock %g, %d live; want nil, 11, 0", err, e.Now(), e.LiveProcs())
	}
}

// TestSleepNonFinitePanics: a NaN or infinite wake time is never taken in
// place, even under Run's infinite limit; it panics in the process as
// before.
func TestSleepNonFinitePanics(t *testing.T) {
	for _, d := range []Duration{math.NaN(), math.Inf(1)} {
		e := New()
		e.Go("bad", func(p *Proc) { p.Sleep(d) })
		err := e.Run()
		var pe *ProcPanicError
		if !errors.As(err, &pe) || !strings.Contains(pe.Error(), "non-finite") {
			t.Fatalf("Sleep(%g): Run = %v, want a non-finite *ProcPanicError", d, err)
		}
		e.Shutdown()
	}
}

// TestSleepAfterStop: a process that stops the engine and then sleeps ends
// the run with ErrStopped, parked, even with nothing else queued.
func TestSleepAfterStop(t *testing.T) {
	e := New()
	after := false
	e.Go("stopper", func(p *Proc) {
		p.Sleep(1)
		e.Stop()
		p.Sleep(1)
		after = true
	})
	if err := e.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if after || e.Now() != 1 || e.LiveProcs() != 1 {
		t.Fatalf("ran past the stop: %v, clock %g, %d live", after, e.Now(), e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
}

// TestSleepElidedZeroAlloc pins the elided path at zero allocations: each
// RunUntil window below takes 99 wakes in place and one round trip.
func TestSleepElidedZeroAlloc(t *testing.T) {
	e := New()
	stop := false
	e.Go("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(1)
		}
	})
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().Elided
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunUntil(e.Now() + 100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("elided sleep allocates %v per window, want 0", allocs)
	}
	if n := e.Stats().Elided - before; n != 101*99 {
		t.Fatalf("%d wakes elided, want %d", n, 101*99)
	}
	stop = true
	e.Shutdown()
}

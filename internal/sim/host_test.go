package sim

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
)

// timerWaiter spawns a process that n times arms a timer d seconds out
// whose callback signals the process's own Cond, and waits on it, logging
// the clock at each wake-up. Under the run loops it hosts every park after
// its first wake-up, firing the callback on its own coroutine.
func timerWaiter(e *Engine, name string, n int, d Duration, log *[]Time) *Proc {
	var c Cond
	signal := func() { c.Signal(e) }
	return e.Go(name, func(p *Proc) {
		for i := 0; i < n; i++ {
			e.After(d, signal)
			c.Wait(p)
			*log = append(*log, e.Now())
		}
	})
}

// TestHostedCallbackPanic: a callback that panics while a process hosts it
// leaves Run as a panic with the same value on the caller's goroutine, as
// it does from the run loop, not as a *ProcPanicError blaming the host. The
// host stays parked, and a second Run carries on exactly as under Step.
func TestHostedCallbackPanic(t *testing.T) {
	boom := errors.New("boom")
	run := func(drive func(e *Engine) error) (pv any, hosted bool, log []Time, e *Engine) {
		e = New()
		timerWaiter(e, "waiter", 6, 1, &log)
		e.At(3.5, func() {
			hosted = e.current != nil
			panic(boom)
		})
		func() {
			defer func() { pv = recover() }()
			if err := drive(e); err != nil {
				t.Errorf("first run returned %v, want a panic", err)
			}
		}()
		if e.running || e.current != nil || e.LiveProcs() != 1 || e.Now() != 3.5 {
			t.Errorf("after the panic: running %v, current %v, %d live, clock %g; want false, nil, 1, 3.5",
				e.running, e.current, e.LiveProcs(), e.Now())
		}
		if err := drive(e); err != nil {
			t.Fatalf("second run: %v", err)
		}
		return pv, hosted, log, e
	}
	pv, hosted, log, e := run((*Engine).Run)
	refPV, refHosted, refLog, ref := run(func(e *Engine) error { return stepUntil(e, math.Inf(1)) })
	if pv != boom || refPV != boom {
		t.Fatalf("recovered %v (Run), %v (Step), want the callback's own value", pv, refPV)
	}
	if !hosted || refHosted {
		t.Fatalf("panicking callback hosted: %v under Run, %v under Step; want true, false", hosted, refHosted)
	}
	if !slices.Equal(log, refLog) || len(log) != 6 || e.seq != ref.seq || e.LiveProcs() != 0 {
		t.Fatalf("wakes %v (Run), %v (Step); seq %d, %d; %d live", log, refLog, e.seq, ref.seq, e.LiveProcs())
	}
	if e.Stats().Elided == 0 {
		t.Fatal("no wake-up was taken in place")
	}
}

// TestHostedCallbackStop: a hosted callback that stops the engine ends the
// run with ErrStopped and every process killed: the others by Stop, in
// spawn order, then the host once it has handed control back. No
// coroutine is left running.
func TestHostedCallbackStop(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	run := func(drive func(e *Engine) error) (killed []string, hosted bool, e *Engine) {
		e = New()
		var never Cond
		blocked := func(name string) {
			e.Go(name, func(p *Proc) {
				defer func() { killed = append(killed, name) }()
				never.Wait(p)
			})
		}
		blocked("a")
		var log []Time
		var c Cond
		signal := func() { c.Signal(e) }
		e.Go("waiter", func(p *Proc) {
			defer func() { killed = append(killed, "waiter") }()
			for {
				e.After(1, signal)
				c.Wait(p)
				log = append(log, e.Now())
			}
		})
		blocked("z")
		e.At(3.5, func() {
			hosted = e.current != nil
			e.Stop()
		})
		if err := drive(e); !errors.Is(err, ErrStopped) {
			t.Fatalf("run = %v, want ErrStopped", err)
		}
		if !slices.Equal(log, []Time{1, 2, 3}) || e.Now() != 3.5 {
			t.Fatalf("wakes %v, clock %g; want [1 2 3], 3.5", log, e.Now())
		}
		return killed, hosted, e
	}
	killed, hosted, e := run((*Engine).Run)
	refKilled, refHosted, ref := run(func(e *Engine) error { return stepUntil(e, math.Inf(1)) })
	if !hosted || refHosted {
		t.Fatalf("stopping callback hosted: %v under Run, %v under Step; want true, false", hosted, refHosted)
	}
	if !slices.Equal(killed, []string{"a", "z", "waiter"}) || !slices.Equal(refKilled, []string{"a", "waiter", "z"}) {
		t.Fatalf("kill order %v under Run, %v under Step; want [a z waiter], [a waiter z]", killed, refKilled)
	}
	if e.LiveProcs() != 0 || ref.LiveProcs() != 0 {
		t.Fatalf("%d, %d live after the stop, want 0", e.LiveProcs(), ref.LiveProcs())
	}
	e.Shutdown()
	ref.Shutdown()
	if e.LiveProcs() != 0 || e.seq != ref.seq || e.Stats().Callbacks != ref.Stats().Callbacks {
		t.Fatalf("after Shutdown: %d live, seq %d (Step %d), stats %+v (Step %+v)",
			e.LiveProcs(), e.seq, ref.seq, e.Stats(), ref.Stats())
	}
	// Finished coroutines exit asynchronously; give them a moment.
	for i := 0; i < 100 && runtime.NumGoroutine() > goroutines; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after the runs, %d before", n, goroutines)
	}
}

// TestHostedInterruptStrideAndLimit: with an interrupt hook installed and
// the run split into RunUntil windows, the hook polls after the same
// events at the same clock whether the wake-ups are hosted or not, and
// each window ends where Step's does, with the same clock and queue.
func TestHostedInterruptStrideAndLimit(t *testing.T) {
	type poll struct {
		fired uint64
		now   Time
	}
	type window struct {
		err     string
		now     Time
		pending int
	}
	run := func(drive func(e *Engine, limit Time) error) ([]poll, []window, []Time, *Engine) {
		e := New()
		var log []Time
		var polls []poll
		timerWaiter(e, "fast", 40, 0.25, &log)
		timerWaiter(e, "slow", 8, 1.5, &log)
		e.SetInterrupt(5, func() bool {
			s := e.Stats()
			polls = append(polls, poll{s.Callbacks + s.Dispatches + s.Elided, e.Now()})
			return len(polls)%4 == 0
		})
		var windows []window
		for _, limit := range []Time{0.6, 2, 2, 3.1, 7.5, 20, 20, 20, 20, math.Inf(1), math.Inf(1)} {
			w := window{}
			if err := drive(e, limit); err != nil {
				w.err = err.Error()
			}
			w.now, w.pending = e.Now(), e.PendingEvents()
			windows = append(windows, w)
		}
		return polls, windows, log, e
	}
	polls, windows, log, e := run(runLoop)
	refPolls, refWindows, refLog, ref := run(stepUntil)
	if !slices.Equal(polls, refPolls) || !slices.Equal(windows, refWindows) || !slices.Equal(log, refLog) {
		t.Fatalf("Run and Step differ:\npolls   %v\n        %v\nwindows %v\n        %v\nwakes   %v\n        %v",
			polls, refPolls, windows, refWindows, log, refLog)
	}
	if e.LiveProcs() != 0 || len(log) != 48 || e.seq != ref.seq {
		t.Fatalf("%d live, %d wakes, seq %d (Step %d); want 0, 48, equal", e.LiveProcs(), len(log), e.seq, ref.seq)
	}
	s, rs := e.Stats(), ref.Stats()
	if s.Callbacks != rs.Callbacks || s.Dispatches+s.Elided != rs.Dispatches || s.Elided == 0 {
		t.Fatalf("stats %+v under Run, %+v under Step", s, rs)
	}
	var interrupted, atLimit int
	for _, w := range windows {
		if w.err != "" {
			interrupted++
		} else if w.pending > 0 {
			atLimit++
		}
	}
	if interrupted == 0 || atLimit == 0 {
		t.Fatalf("windows %v: want some interrupted and some ended at the limit", windows)
	}
}

// TestHostFlag pins when a process may host: the run loop grants it when
// it resumes a process with nothing but callbacks fired since it parked,
// and a hosted park that fired callbacks and still had to hand control
// back takes it away. A hosted park that fired nothing keeps it, and
// Step never grants it.
func TestHostFlag(t *testing.T) {
	e := New()
	var c Cond
	signal := func() { c.Signal(e) }
	var flags []bool
	wait := func(p *Proc) {
		c.Wait(p)
		flags = append(flags, p.host)
	}
	e.Go("q", func(p *Proc) {
		p.Sleep(2.5)
		p.Sleep(2)
	})
	e.Go("w", func(p *Proc) {
		if p.host {
			t.Error("a spawned process may host")
		}
		// Woken at 1 by a callback, nothing else in between: granted.
		e.After(1, signal)
		wait(p)
		// Hosted: the callback at 2 fires in place, q's wake-up at 2.5
		// hands control back, so the right is lost; q runs before the
		// wake-up at 3, so it is not granted again.
		e.After(1, func() {})
		e.After(2, signal)
		wait(p)
		// Not hosted: the callback at 4 goes through the run loop, and
		// the wake-up after it grants the right back.
		e.After(1, signal)
		wait(p)
		// Hosted, but q's wake-up at 4.5 is the head: nothing fired, so
		// the right stays, though q runs before the wake-up at 5.
		e.After(1, signal)
		wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false, true, true}; !slices.Equal(flags, want) {
		t.Fatalf("host flag after each wake-up = %v, want %v", flags, want)
	}
	if s := e.Stats(); s != (Stats{Callbacks: 5, Dispatches: 8, Elided: 0, Spawns: 2}) {
		t.Fatalf("stats = %+v", s)
	}
	// Step grants nothing, though the same waiter is resumed with only
	// its timer fired since it parked.
	stepped := New()
	var log []Time
	p := timerWaiter(stepped, "stepped", 3, 1, &log)
	for stepped.Step() {
		if p.host {
			t.Fatalf("Step granted hosting at %g", stepped.Now())
		}
	}
	if len(log) != 3 {
		t.Fatalf("%d wake-ups under Step, want 3", len(log))
	}
}

// TestHostedWakeZeroAlloc pins a hosted wake-up at zero allocations: each
// RunUntil window below fires 100 callbacks, 99 of them hosted, and takes
// 99 wake-ups in place and one round trip.
func TestHostedWakeZeroAlloc(t *testing.T) {
	e := New()
	var c Cond
	stop := false
	signal := func() { c.Signal(e) }
	e.Go("waiter", func(p *Proc) {
		for !stop {
			e.After(1, signal)
			c.Wait(p)
		}
	})
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunUntil(e.Now() + 100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hosted wake-up allocates %v per window, want 0", allocs)
	}
	s := e.Stats()
	if d, n := s.Dispatches-before.Dispatches, s.Elided-before.Elided; d != 101 || n != 101*99 {
		t.Fatalf("%d dispatches and %d wakes in place, want 101 and %d", d, n, 101*99)
	}
	stop = true
	e.Shutdown()
}

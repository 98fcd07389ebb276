package sim

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"weak"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(2, func() { got = append(got, 2) })
	e.At(1, func() { got = append(got, 1) })
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 10) }) // same time: scheduling order
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 10, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(1, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimerCancel(t *testing.T) {
	e := New()
	fired := false
	tm := e.At(1, func() { fired = true })
	if !tm.Cancel() {
		t.Error("first Cancel should report pending")
	}
	if tm.Cancel() {
		t.Error("second Cancel should report not pending")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled timer fired")
	}
}

func TestProcSleep(t *testing.T) {
	e := New()
	var times []Time
	e.Go("sleeper", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(1.5)
		times = append(times, p.Now())
		p.Sleep(0.5)
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 1.5, 2}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestInterleavingDeterminism(t *testing.T) {
	run := func() []string {
		e := New()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					p.Sleep(1)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d diverged at %d: %v vs %v", i, j, first, again)
			}
		}
	}
}

func TestCondFIFO(t *testing.T) {
	e := New()
	var c Cond
	var woke []string
	ready := 0
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(p *Proc) {
			ready++
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Go("signaler", func(p *Proc) {
		for ready < 3 {
			p.Sleep(0)
		}
		c.Signal(e)
		p.Sleep(1)
		c.Broadcast(e)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != "w1" {
		t.Fatalf("wake order = %v", woke)
	}
}

func TestGate(t *testing.T) {
	e := New()
	var g Gate
	passed := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			g.Wait(p)
			passed++
		})
	}
	e.Go("opener", func(p *Proc) {
		p.Sleep(2)
		g.Open(e)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if passed != 3 {
		t.Fatalf("passed = %d, want 3", passed)
	}
	// After opening, Wait must not block.
	e2 := New()
	var g2 Gate
	g2.Open(e2)
	done := false
	e2.Go("late", func(p *Proc) {
		g2.Wait(p)
		done = true
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("late waiter blocked on open gate")
	}
}

func TestWaitGroup(t *testing.T) {
	e := New()
	var wg WaitGroup
	wg.Add(3)
	finished := Time(-1)
	for i := 1; i <= 3; i++ {
		d := Duration(i)
		e.Go("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done(e)
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		finished = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 3 {
		t.Fatalf("waiter finished at %v, want 3", finished)
	}
}

func TestSemaphore(t *testing.T) {
	e := New()
	s := NewSemaphore(2)
	concurrent, maxConcurrent := 0, 0
	for i := 0; i < 5; i++ {
		e.Go("user", func(p *Proc) {
			s.Acquire(p)
			concurrent++
			if concurrent > maxConcurrent {
				maxConcurrent = concurrent
			}
			p.Sleep(1)
			concurrent--
			s.Release(e)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxConcurrent != 2 {
		t.Fatalf("maxConcurrent = %d, want 2", maxConcurrent)
	}
	if s.Available() != 2 {
		t.Fatalf("Available = %d, want 2", s.Available())
	}
}

func TestShutdownReleasesBlockedProcs(t *testing.T) {
	e := New()
	var c Cond
	e.Go("stuck", func(p *Proc) { c.Wait(p) })
	e.Go("stuck2", func(p *Proc) { p.Sleep(1); c.Wait(p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.LiveProcs() != 2 {
		t.Fatalf("LiveProcs before shutdown = %d, want 2", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after shutdown = %d, want 0", e.LiveProcs())
	}
}

func TestStopFromProcess(t *testing.T) {
	e := New()
	reached := false
	e.Go("stopper", func(p *Proc) {
		p.Sleep(1)
		e.Stop()
	})
	e.Go("other", func(p *Proc) {
		p.Sleep(100)
		reached = true
	})
	err := e.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if reached {
		t.Error("event after Stop ran")
	}
	if e.Now() != 1 {
		t.Fatalf("clock = %v, want 1", e.Now())
	}
}

// waitGoroutines polls until the goroutine count is back to at most limit:
// the runtime reclaims exited coroutines asynchronously.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > limit; i++ {
		if i > 100 {
			t.Fatalf("goroutines leaked: %d, want <= %d", runtime.NumGoroutine(), limit)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

func panicAtThree(p *Proc) {
	p.Sleep(3)
	panic("boom")
}

// TestProcPanicError: a process panic ends the run as a *ProcPanicError
// naming the process, the virtual time and the panicking frame, instead of
// crashing the program; Shutdown then releases every other process.
func TestProcPanicError(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	var c Cond
	e.Go("waiter", func(p *Proc) { c.Wait(p) })
	e.Go("sleeper", func(p *Proc) { p.Sleep(10) })
	e.Go("bad", panicAtThree)
	err := e.Drain(100)
	var pe *ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Drain err = %v, want *ProcPanicError", err)
	}
	if pe.Proc != "bad" || pe.Clock != 3 || pe.Value != "boom" {
		t.Fatalf("ProcPanicError = {%q, %g, %v}, want {bad, 3, boom}", pe.Proc, pe.Clock, pe.Value)
	}
	if !strings.Contains(pe.Stack, "panicAtThree") {
		t.Fatalf("Stack does not name the panicking function:\n%s", pe.Stack)
	}
	if e.Now() != 3 || e.LiveProcs() != 2 {
		t.Fatalf("run went on after the panic: clock %g, %d live procs", e.Now(), e.LiveProcs())
	}
	if err := e.Run(); !errors.Is(err, pe) {
		t.Fatalf("Run after a panic = %v, want the same *ProcPanicError", err)
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
	waitGoroutines(t, before)
}

// TestKillUndispatchedProc: Stop and Shutdown retire a process that was
// spawned but never dispatched without running its body.
func TestKillUndispatchedProc(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, kill := range []string{"Stop", "Shutdown"} {
		e := New()
		if kill == "Stop" {
			e.At(0, e.Stop) // fires before the spawn's own dispatch at t=0
		}
		ran := false
		e.Go("never", func(p *Proc) { ran = true })
		if kill == "Shutdown" {
			e.Shutdown()
		}
		if err := e.Run(); !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: Run = %v, want ErrStopped", kill, err)
		}
		if ran || e.LiveProcs() != 0 {
			t.Fatalf("%s: body ran %v, LiveProcs %d", kill, ran, e.LiveProcs())
		}
	}
	waitGoroutines(t, before)
}

// spawnHolder starts a process whose closure captures a fresh object and
// returns a weak pointer to it.
func spawnHolder(e *Engine, c *Cond) weak.Pointer[[64]int] {
	obj := new([64]int)
	e.Go("holder", func(p *Proc) {
		p.Sleep(1)
		obj[0]++
		if c != nil {
			c.Wait(p)
		}
	})
	return weak.Make(obj)
}

// TestFinishedProcCollectable: once a process finishes or is killed, its
// closure's captures are collectable while the engine is still alive, so a
// long run's memory does not grow with every process it ever spawned.
func TestFinishedProcCollectable(t *testing.T) {
	e := New()
	var c Cond
	finished := spawnHolder(e, nil)
	killed := spawnHolder(e, &c)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	runtime.GC()
	if finished.Value() != nil {
		t.Error("a finished process's captures are still reachable")
	}
	if killed.Value() != nil {
		t.Error("a killed process's captures are still reachable")
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(&c)
}

// TestProcSwitchZeroAlloc pins the process kernel's steady state: a Sleep
// wake-up and a Cond hand-off each dispatch a process and park it again
// without allocating.
func TestProcSwitchZeroAlloc(t *testing.T) {
	e := New()
	var c Cond
	stop := false
	e.Go("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(1)
		}
	})
	e.Go("waiter", func(p *Proc) {
		for !stop {
			c.Wait(p)
		}
	})
	for i := 0; i < 8; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Signal(e)
		if !e.Step() || !e.Step() {
			t.Fatal("no event to fire")
		}
	})
	if allocs != 0 {
		t.Fatalf("process switch allocates %v/op, want 0", allocs)
	}
	stop = true
	e.Shutdown()
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() { count++ })
	}
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

// TestClockMonotonic is a property test: for any random schedule of nested
// events and sleeps, observed time never decreases.
func TestClockMonotonic(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		last := Time(-1)
		ok := true
		var observe func()
		observe = func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if rng.Intn(3) == 0 {
				e.After(rng.Float64(), observe)
			}
		}
		for i := 0; i < int(n%20)+1; i++ {
			e.At(rng.Float64()*10, observe)
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestManyProcs exercises the dispatcher with a large number of processes to
// catch goroutine handoff bugs.
func TestManyProcs(t *testing.T) {
	e := New()
	total := 0
	for i := 0; i < 500; i++ {
		e.Go("p", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(0.1)
			}
			total++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 500 {
		t.Fatalf("total = %d, want 500", total)
	}
}

func TestCondWaitFor(t *testing.T) {
	e := New()
	var c Cond
	x := 0
	doneAt := Time(-1)
	e.Go("waiter", func(p *Proc) {
		c.WaitFor(p, func() bool { return x >= 3 })
		doneAt = p.Now()
	})
	e.Go("incr", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			x++
			c.Broadcast(e)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3 {
		t.Fatalf("doneAt = %v, want 3", doneAt)
	}
}

// TestCancelRemovesEventEagerly pins the eager-removal contract: canceling a
// timer deletes its event from the queue immediately rather than leaving a
// tombstone until the heap pops it.
func TestCancelRemovesEventEagerly(t *testing.T) {
	e := New()
	var timers []Timer
	for i := 0; i < 10; i++ {
		d := Duration(i + 1)
		timers = append(timers, e.After(d, func() {}))
	}
	if e.PendingEvents() != 10 {
		t.Fatalf("PendingEvents = %d, want 10", e.PendingEvents())
	}
	// Cancel interior, first, and last elements; the count must drop at once.
	for i, idx := range []int{4, 0, 9, 7} {
		if !timers[idx].Cancel() {
			t.Fatalf("Cancel %d reported not pending", idx)
		}
		if got := e.PendingEvents(); got != 10-(i+1) {
			t.Fatalf("after cancel %d: PendingEvents = %d, want %d", idx, got, 10-(i+1))
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.PendingEvents() != 0 {
		t.Fatalf("PendingEvents after run = %d, want 0", e.PendingEvents())
	}
}

// TestTimerStaleHandle: a Timer whose event already fired (and whose record
// may have been recycled into a new event) must never cancel anything.
func TestTimerStaleHandle(t *testing.T) {
	e := New()
	firstFired, secondFired := false, false
	tm := e.At(1, func() { firstFired = true })
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if !firstFired {
		t.Fatal("first timer did not fire")
	}
	// This reuses the pooled record of the fired event.
	e.At(2, func() { secondFired = true })
	if tm.Cancel() {
		t.Fatal("stale handle canceled a recycled event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !secondFired {
		t.Fatal("recycled event was suppressed by a stale handle")
	}
}

// TestZeroTimerCancel: the zero Timer is inert.
func TestZeroTimerCancel(t *testing.T) {
	var tm Timer
	if tm.Cancel() {
		t.Fatal("zero Timer reported pending")
	}
}

// TestAfterFireZeroAlloc asserts the headline property of the pooled event
// path: scheduling and firing a timer allocates nothing once the engine's
// buffers are warm.
func TestAfterFireZeroAlloc(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the event pool and heap slice.
	for i := 0; i < 64; i++ {
		e.After(1, fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		if !e.Step() {
			t.Fatal("no event to fire")
		}
	})
	if allocs != 0 {
		t.Fatalf("After+fire allocates %v/op, want 0", allocs)
	}
}

// TestCancelZeroAlloc: schedule+cancel must also be allocation-free.
func TestCancelZeroAlloc(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(1, fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm := e.After(1, fn)
		if !tm.Cancel() {
			t.Fatal("cancel failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("After+Cancel allocates %v/op, want 0", allocs)
	}
}

// TestCondInterleavedWaitSignal covers the head-indexed ring under
// interleaved Wait/Signal traffic: wake-ups must stay strictly FIFO even as
// the queue drains and refills across the compaction boundary.
func TestCondInterleavedWaitSignal(t *testing.T) {
	e := New()
	var c Cond
	var woke []int
	const n = 200 // several compaction windows
	for i := 0; i < n; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(Duration(i)) // arrive one at a time
			c.Wait(p)
			woke = append(woke, i)
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Sleep(0.5)
		for i := 0; i < n; i++ {
			// Alternate one and two signals per tick so the ring's head
			// chases a moving tail; extra signals on an empty queue no-op.
			c.Signal(e)
			if i%2 == 1 {
				c.Signal(e)
			}
			p.Sleep(1.5)
		}
		for i := 0; i < n; i++ {
			c.Signal(e)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != n {
		t.Fatalf("woke %d waiters, want %d", len(woke), n)
	}
	for i, v := range woke {
		if v != i {
			t.Fatalf("wake order broken at %d: got %v", i, woke[:i+1])
		}
	}
	if c.Waiting() != 0 {
		t.Fatalf("Waiting = %d, want 0", c.Waiting())
	}
}

// TestCondSignalBroadcastMix: Broadcast after partial Signal drains must wake
// the survivors in FIFO order with a clean ring reset.
func TestCondSignalBroadcastMix(t *testing.T) {
	e := New()
	var c Cond
	var woke []int
	for i := 0; i < 6; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			c.Wait(p)
			woke = append(woke, i)
		})
	}
	e.Go("driver", func(p *Proc) {
		p.Sleep(1)
		c.Signal(e)
		c.Signal(e)
		p.Sleep(1)
		c.Broadcast(e)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range woke {
		if v != i {
			t.Fatalf("wake order = %v", woke)
		}
	}
	if len(woke) != 6 {
		t.Fatalf("woke = %v", woke)
	}
}

// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel follows the classic process-interaction style (as popularized by
// SimPy): simulation logic is written as ordinary sequential Go code inside
// processes, and the engine interleaves processes on a virtual clock. Each
// process is an iter.Pull coroutine: the engine resumes it and does not
// proceed until the process parks again, so exactly one process executes at
// any moment, simulations are fully deterministic, and no locking is needed.
// A coroutine switch bypasses the goroutine scheduler and allocates nothing.
// A panic inside a process does not crash the program: the run loops return
// it as a *ProcPanicError.
//
// Time is measured in seconds as float64. Ties between events scheduled for
// the same instant are broken by scheduling order (a monotonically increasing
// sequence number), which keeps runs bit-reproducible.
//
// The event path is allocation-free in steady state: event records are pooled
// on a free list, canceled timers are removed from the heap eagerly (via the
// stored heap index) instead of leaving tombstones, and process wake-ups are
// scheduled as direct dispatch events rather than closures.
//
// Cheaper than a round trip is none. A Sleep whose wake-up is the next event
// takes it in place. A process that the run loop has resumed with nothing but
// callbacks fired since it parked hosts its parks from then on: it fires the
// queued callbacks on its own coroutine and, when the head is its own
// wake-up, pops it and returns. It hands control back at another process's
// wake-up, the RunUntil limit, a stop, a process panic or the interrupt poll,
// and after firing callbacks and still handing back it stops hosting until
// the run loop grants it again. Event order, sequence numbers and the
// interrupt cadence are exactly those of the run loop; Step never hosts or
// elides. A panic in a hosted callback leaves RunUntil on the caller's
// goroutine, as from the run loop, and a Stop made by a hosted callback
// kills the hosting process after every other one, once it has handed
// control back.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
)

// Time is a point on the virtual clock, in seconds.
type Time = float64

// Duration is a span of virtual time, in seconds.
type Duration = float64

// errKilled is panicked inside a process whose park was refused because the
// engine is killing it; the process wrapper recovers it.
var errKilled = errors.New("sim: process killed")

// ErrStopped is returned by Run when the engine was stopped explicitly.
var ErrStopped = errors.New("sim: engine stopped")

// ErrInterrupted is returned (wrapped) by the run loops when the interrupt
// check installed with SetInterrupt reported true: the loop stopped between
// two events, with the queue and processes intact. Callers that abandon the
// run must still call Shutdown to release the parked processes. Detect it
// with errors.Is.
var ErrInterrupted = errors.New("sim: run interrupted")

// DeadlineError reports that a simulation reached its horizon with work
// still pending: the event queue was not empty when the clock hit the
// limit. Callers distinguish it from other failures with errors.As.
type DeadlineError struct {
	Horizon Time // the limit that was hit
	Next    Time // timestamp of the earliest unexecuted event
	Pending int  // events still queued beyond the horizon
	Live    int  // processes still alive (running or parked)
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sim: horizon %g s exceeded: %d events pending (next at %g s), %d live processes",
		e.Horizon, e.Pending, e.Next, e.Live)
}

// ProcPanicError reports that a process panicked. The run loops return it
// and stop; the model state is then suspect, so callers Shutdown the engine
// and discard the run. Stack is the process's own stack at the panic.
type ProcPanicError struct {
	Proc  string // name given to Go
	Clock Time   // virtual time of the panic
	Value any    // the value passed to panic
	Stack string
}

func (e *ProcPanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked at %g s: %v", e.Proc, e.Clock, e.Value)
}

// event is a scheduled callback. Records are recycled through Engine.free;
// gen distinguishes a live record from a recycled one so stale Timer handles
// can never cancel an unrelated event.
type event struct {
	t     Time
	seq   uint64
	fn    func() // callback; nil when p drives a direct dispatch
	p     *Proc  // dispatch fast path: wake this process without a closure
	gen   uint32 // bumped on recycle
	index int    // heap position, -1 while off the heap
}

// Timer is a handle to a scheduled event; it can be canceled before it fires.
// The zero Timer is valid and cancels nothing.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint32
}

// Cancel prevents the timer's callback from running and removes the event
// from the queue immediately (no tombstone is left behind). It is safe to
// call after the timer has fired (it then has no effect). Reports whether
// the callback was still pending.
func (t Timer) Cancel() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.index < 0 {
		return false
	}
	t.eng.removeEvent(ev.index)
	t.eng.recycle(ev)
	return true
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// call New.
type Engine struct {
	now     Time
	queue   []*event // binary min-heap ordered by (t, seq)
	free    []*event // recycled event records
	seq     uint64
	live    int     // processes started but not finished
	order   []*Proc // processes in spawn order, for deterministic kill
	stopped bool
	running bool
	current *Proc           // process currently executing, nil when in engine context
	perr    *ProcPanicError // first process panic; ends every run loop

	// Interrupt hook (SetInterrupt): checked between events, every
	// intrEvery firings, by the run loops. The check must be safe to call
	// from whichever goroutine drives the engine; it must not mutate
	// simulation state, so a run that is never interrupted stays
	// bit-identical to one with no hook installed.
	intrCheck func() bool
	intrEvery int
	intrLeft  int

	limit Time  // horizon of the active RunUntil; meaningful while running
	stats Stats // work counters, always on

	// Hosted run loop (Proc.hostRun). parked is the process whose park
	// ended the last dispatch, nil if that process finished. A hosted
	// callback's panic, and a Stop made by a hosted callback, are carried
	// back to dispatch, which acts on them on the run loop's goroutine.
	parked      *Proc
	hostPanic   any
	hostStopped bool
}

// Stats are exact work counters of an Engine, always on. A wake-up taken in
// place (Elided), by Sleep or by a hosted park, replaces exactly one
// dispatch the run loop would otherwise have made, so Dispatches+Elided is
// the same for every way the same simulation is driven.
type Stats struct {
	Callbacks  uint64 // callback events fired
	Dispatches uint64 // process resumes: coroutine round trips
	Elided     uint64 // wake-ups taken in place, without a round trip
}

// Stats returns the engine's work counters.
func (e *Engine) Stats() Stats { return e.stats }

// New returns a fresh engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() Time { return e.now }

// newEvent takes a record off the free list (or allocates one) and stamps it
// with the next sequence number.
func (e *Engine) newEvent(t Time, fn func(), p *Proc) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.t, ev.seq, ev.fn, ev.p = t, e.seq, fn, p
	e.seq++
	return ev
}

// recycle returns a popped or canceled event record to the free list. The
// generation bump invalidates any Timer still pointing at the record.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.p = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// heap primitives: a hand-rolled binary heap keyed by (t, seq) that keeps
// event.index current, so Cancel can remove an interior element in O(log n).

func (e *Engine) less(i, j int) bool {
	a, b := e.queue[i], e.queue[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	q := e.queue
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.queue)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && e.less(r, l) {
			least = r
		}
		if !e.less(least, i) {
			return
		}
		e.swap(i, least)
		i = least
	}
}

func (e *Engine) pushEvent(ev *event) {
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.siftUp(ev.index)
}

// popEvent removes and returns the earliest event.
func (e *Engine) popEvent() *event {
	ev := e.queue[0]
	e.removeEvent(0)
	return ev
}

// removeEvent deletes the element at heap position i.
func (e *Engine) removeEvent(i int) {
	last := len(e.queue) - 1
	ev := e.queue[i]
	if i != last {
		e.swap(i, last)
	}
	e.queue[last] = nil
	e.queue = e.queue[:last]
	if i != last {
		e.siftDown(i)
		e.siftUp(i)
	}
	ev.index = -1
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error and panics: it would break causality.
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.newEvent(t, fn, nil)
	e.pushEvent(ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d seconds from now. Negative d is clamped to 0.
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// scheduleProc schedules a direct dispatch of p at absolute time t. This is
// the wake-up fast path: no closure is built, so parking and waking processes
// does not allocate.
func (e *Engine) scheduleProc(t Time, p *Proc) {
	e.pushEvent(e.newEvent(t, nil, p))
}

// fire runs one popped event. The record is recycled first so the callback
// can immediately reuse it when scheduling follow-up events.
func (e *Engine) fire(ev *event) {
	e.now = ev.t
	fn, p := ev.fn, ev.p
	e.recycle(ev)
	if p != nil {
		e.dispatch(p)
		return
	}
	e.stats.Callbacks++
	fn()
}

// SetInterrupt installs a cooperative interrupt: the run loops call check
// between events, once every `every` firings (values < 1 mean every event),
// and stop with ErrInterrupted when it reports true. The queue and processes
// are left intact — a caller abandoning the run calls Shutdown, exactly as
// for a horizon overrun. A nil check removes the hook. The hook never runs
// inside an event, so it cannot perturb simulation state, and a run whose
// check never fires is bit-identical to a run without one.
func (e *Engine) SetInterrupt(every int, check func() bool) {
	if every < 1 {
		every = 1
	}
	e.intrCheck = check
	e.intrEvery = every
	e.intrLeft = every
}

// interrupted polls the interrupt hook's countdown; it is called by the run
// loops between events.
func (e *Engine) interrupted() bool {
	if e.intrCheck == nil {
		return false
	}
	e.intrLeft--
	if e.intrLeft > 0 {
		return false
	}
	e.intrLeft = e.intrEvery
	return e.intrCheck()
}

// Run executes events until the queue drains or the engine is stopped.
// It returns the *ProcPanicError if a process panicked, ErrStopped if Stop
// was called, nil otherwise.
func (e *Engine) Run() error { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= limit. The clock is left at
// the time of the last executed event (or at limit if events remain beyond
// it... the clock never advances past the last executed event).
func (e *Engine) RunUntil(limit Time) error {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.limit = limit
	defer func() { e.running = false }()
	for len(e.queue) > 0 && !e.stopped && e.perr == nil {
		if e.queue[0].t > limit {
			break
		}
		if e.interrupted() {
			return ErrInterrupted
		}
		e.fire(e.popEvent())
	}
	if e.perr != nil {
		return e.perr
	}
	if e.stopped {
		return ErrStopped
	}
	return nil
}

// Drain executes events until the queue empties, like RunUntil, but treats
// reaching the limit with events still queued as an error: it returns a
// *DeadlineError describing the stuck work. This is the run primitive for
// scenarios that are structurally expected to complete — a horizon overrun
// means a workload or migration never finished, not a normal end.
func (e *Engine) Drain(limit Time) error {
	if err := e.RunUntil(limit); err != nil {
		return err
	}
	if len(e.queue) > 0 {
		return &DeadlineError{
			Horizon: limit,
			Next:    e.queue[0].t,
			Pending: len(e.queue),
			Live:    e.live,
		}
	}
	return nil
}

// Step executes the single next pending event, if any, and reports whether
// an event ran. Used by tests that need fine-grained control. Under Step a
// Sleep never takes its wake-up in place, so a Step loop is the
// event-at-a-time reference for the run loops.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fire(e.popEvent())
	return true
}

// Stop terminates the run loop after the current event and kills every
// other live process. The process that calls Stop, if any, is not killed: it
// stays parked at its next park until Shutdown. The engine cannot be reused
// afterwards.
func (e *Engine) Stop() {
	if !e.stopped {
		e.Shutdown()
	}
}

// Shutdown kills every live process except the running one, in spawn order
// for determinism, including processes that were never dispatched (their
// bodies never run). Call it after Run returns to release an abandoned
// simulation (e.g. one that ended with blocked processes).
func (e *Engine) Shutdown() {
	e.stopped = true
	for _, p := range e.order {
		if p != e.current {
			p.kill()
		}
	}
}

// LiveProcs returns the number of processes that have started but not
// finished. A structurally complete simulation drains to zero.
func (e *Engine) LiveProcs() int { return e.live }

// PendingEvents returns the number of events still queued. Canceled timers
// are removed eagerly, so they are never counted.
func (e *Engine) PendingEvents() int { return len(e.queue) }

// Proc is a simulation process: sequential code that can sleep on the
// virtual clock and block on conditions. A Proc must only be used from its
// own process function. It runs as an iter.Pull coroutine: next resumes it,
// raw (the coroutine's yield) parks it, stop kills it. park calls yield,
// which is raw, or hostYield while the process may host. All are nil once
// the process has finished or been killed, so its closure is collectable
// while the engine lives on.
type Proc struct {
	eng       *Engine
	name      string
	next      func() (struct{}, bool)
	stop      func()
	yield     func(struct{}) bool
	raw       func(struct{}) bool
	hostYield func(struct{}) bool // p.hostedYield, bound at the first grant
	host      bool                // yield is hostYield
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Go spawns a new process. The function starts executing at the current
// virtual time, after the spawning context yields to the engine (i.e. it is
// scheduled, not run inline).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield, p.raw = yield, yield
		defer p.catch()
		fn(p)
	})
	e.live++
	e.order = append(e.order, p)
	e.scheduleProc(e.now, p)
	return p
}

// catch ends the process body: it swallows the errKilled unwinding and turns
// any other panic into the engine's ProcPanicError, taking the stack here
// because iter.Pull's re-raise in next would have lost these frames.
func (p *Proc) catch() {
	r := recover()
	if r != nil && r != errKilled && p.eng.perr == nil { //nolint:errorlint // sentinel identity is intended
		p.eng.perr = &ProcPanicError{Proc: p.name, Clock: p.eng.now, Value: r, Stack: string(debug.Stack())}
	}
}

// dispatch hands control to p and returns once p parks or finishes. A
// process the run loop resumes with nothing but callbacks fired since it
// parked has shown the pattern a hosted park pays for, and may host from
// now on. Step grants nothing: it never hosts.
func (e *Engine) dispatch(p *Proc) {
	if p.next == nil {
		return
	}
	if e.parked == p && !p.host && e.running {
		p.grantHost()
	}
	prev := e.current
	e.current = p
	e.stats.Dispatches++
	_, ok := p.next()
	e.current = prev
	if ok {
		e.parked = p
	} else {
		e.parked = nil
		p.release()
	}
	if e.hostStopped || e.hostPanic != nil {
		e.endHosted(p)
	}
}

// endHosted finishes, on the run loop's goroutine, what a hosted callback
// could not do on p's coroutine: kill p after a Stop (p was the running
// process, so Shutdown skipped it), then re-raise the callback's panic, so
// it leaves RunUntil as it would have from the run loop.
func (e *Engine) endHosted(p *Proc) {
	if e.hostStopped {
		e.hostStopped = false
		p.kill()
	}
	if v := e.hostPanic; v != nil {
		e.hostPanic = nil
		panic(v)
	}
}

// mayTakeNext reports whether p may take the run loop's next firing, due at
// t, itself: p is the running process inside RunUntil, the engine is
// neither stopped nor holding a process panic, t is within the limit, and
// the interrupt countdown is not at its last tick (there the run loop must
// make the poll). Sleep's in-place wake-up and a hosted park share it.
func (e *Engine) mayTakeNext(p *Proc, t Time) bool {
	return e.running && e.current == p && !e.stopped && e.perr == nil &&
		t <= e.limit && (e.intrCheck == nil || e.intrLeft > 1)
}

// takeTick charges a firing taken in place one tick of the interrupt
// countdown, as the run loop's poll would have.
func (e *Engine) takeTick() {
	if e.intrCheck != nil {
		e.intrLeft--
	}
}

// park yields control back to the engine and blocks until dispatched again.
// A process that may host yields through hostedYield. park stays this small
// so that it and Cond.Wait inline into their callers: with deeper frames
// at every park, short-lived processes grew their coroutine stacks about
// three times as often.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
}

// grantHost lets p host its parks: park then calls hostedYield.
func (p *Proc) grantHost() {
	if p.hostYield == nil {
		p.hostYield = p.hostedYield
	}
	p.yield, p.host = p.hostYield, true
}

// hostedYield is park's yield while p may host: it runs the run loop on p's
// coroutine (hostRun) and yields to the engine only if that did not reach
// p's own wake-up.
func (p *Proc) hostedYield(struct{}) bool {
	return p.hostRun() || p.raw(struct{}{})
}

// hostRun is the run loop taken on the parking process's own coroutine. It
// fires the queued callbacks in order for as long as mayTakeNext allows,
// and reports true when the head is p's own dispatch, which it pops in
// place of the round trip. It stops at any other process's dispatch, and
// when it fired callbacks and still stops, p loses the right to host until
// a dispatch grants it again.
func (p *Proc) hostRun() bool {
	e := p.eng
	fired := false
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if (ev.p != nil && ev.p != p) || !e.mayTakeNext(p, ev.t) {
			break
		}
		e.removeEvent(0)
		e.takeTick()
		e.now = ev.t
		fn := ev.fn
		e.recycle(ev)
		if fn == nil {
			e.stats.Elided++
			return true
		}
		fired = true
		e.stats.Callbacks++
		if !e.hostFire(fn) {
			break
		}
	}
	if fired {
		p.yield, p.host = p.raw, false
		// The engine was running at the first firing, so a hosted
		// callback stopped it.
		e.hostStopped = e.stopped
	}
	return false
}

// hostFire runs one hosted callback and reports whether it returned. A
// panic is kept for dispatch to re-raise, so that it is never taken for a
// panic of the hosting process.
func (e *Engine) hostFire(fn func()) (ok bool) {
	defer func() {
		if !ok {
			e.hostPanic = recover()
		}
	}()
	fn()
	return true
}

// kill unwinds a parked process, or retires one that was never dispatched.
func (p *Proc) kill() {
	if p.stop != nil {
		p.stop()
		p.release()
	}
}

// release drops the coroutine of a finished or killed process.
func (p *Proc) release() {
	p.next, p.stop, p.yield, p.raw, p.hostYield = nil, nil, nil, nil, nil
	p.eng.live--
}

// Sleep suspends the process for d seconds of virtual time. Negative and
// zero durations yield to the scheduler (other events at the current time
// run first).
//
// When the wake-up would be the very next event the run loop fires, Sleep
// takes it in place: it advances the clock and returns without queueing an
// event or switching coroutines. It consumes the sequence number and the
// interrupt countdown tick that event would have, so event order, every
// later event's seq and the interrupt cadence are exactly those of the
// round trip. The rules are mayTakeNext's, which a hosted park follows too.
// Step never elides.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	t := e.now + d
	// A NaN t fails the limit test and an infinite one the IsInf test, so
	// both reach newEvent and panic there. An equal-time queue head has the
	// smaller seq and fires first, hence the strict comparison.
	if e.mayTakeNext(p, t) && !math.IsInf(t, 0) && (len(e.queue) == 0 || t < e.queue[0].t) {
		e.takeTick()
		e.seq++
		e.now = t
		e.stats.Elided++
		return
	}
	e.scheduleProc(t, p)
	p.park()
}

// block parks the process until someone calls unblock(p). It is the
// low-level primitive behind Cond and other synchronization types.
func (p *Proc) block() { p.park() }

// unblock schedules p to resume at the current virtual time.
func (e *Engine) unblock(p *Proc) {
	e.scheduleProc(e.now, p)
}

// Cond is a FIFO condition variable for processes. The zero value is ready
// to use once bound to an engine via its first Wait.
//
// The waiter queue is a head-indexed ring over a slice: Signal pops the
// front in O(1) instead of shifting the remaining waiters down.
type Cond struct {
	waiters []*Proc
	head    int // first live waiter; everything before it has been woken
}

// condCompactAt bounds the dead prefix of the waiter slice: once head grows
// past it, live waiters are slid down so memory stays proportional to the
// number of actual waiters. Amortized O(1) per Signal.
const condCompactAt = 64

// Wait parks the calling process until Signal or Broadcast wakes it.
// As with sync.Cond, callers re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.block()
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal(e *Engine) {
	if c.head >= len(c.waiters) {
		return
	}
	p := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	} else if c.head >= condCompactAt {
		n := copy(c.waiters, c.waiters[c.head:])
		for i := n; i < len(c.waiters); i++ {
			c.waiters[i] = nil
		}
		c.waiters = c.waiters[:n]
		c.head = 0
	}
	e.unblock(p)
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast(e *Engine) {
	for i := c.head; i < len(c.waiters); i++ {
		e.unblock(c.waiters[i])
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
	c.head = 0
}

// Waiting returns the number of processes parked on the condition.
func (c *Cond) Waiting() int { return len(c.waiters) - c.head }

// WaitFor parks p until pred() holds, re-checking after every wake-up.
// pred must be a pure function of simulation state.
func (c *Cond) WaitFor(p *Proc, pred func() bool) {
	for !pred() {
		c.Wait(p)
	}
}

// Gate blocks processes until it is opened; once open it never blocks again.
// It models one-shot readiness signals (e.g. "destination accepted control").
type Gate struct {
	open bool
	cond Cond
}

// Open releases all current and future waiters.
func (g *Gate) Open(e *Engine) {
	if g.open {
		return
	}
	g.open = true
	g.cond.Broadcast(e)
}

// IsOpen reports whether the gate has been opened.
func (g *Gate) IsOpen() bool { return g.open }

// Wait parks until the gate is open.
func (g *Gate) Wait(p *Proc) {
	for !g.open {
		g.cond.Wait(p)
	}
}

// WaitGroup counts outstanding work items; Wait blocks until zero.
type WaitGroup struct {
	n    int
	cond Cond
}

// Add increments the counter by delta (may be negative via Done).
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
}

// Done decrements the counter and wakes waiters at zero.
func (w *WaitGroup) Done(e *Engine) {
	w.n--
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.cond.Broadcast(e)
	}
}

// Wait parks until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		w.cond.Wait(p)
	}
}

// Semaphore is a counting semaphore with FIFO wake-up.
type Semaphore struct {
	avail int
	cond  Cond
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{avail: n} }

// Acquire takes one permit, blocking while none are available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.avail <= 0 {
		s.cond.Wait(p)
	}
	s.avail--
}

// Release returns one permit and wakes a waiter.
func (s *Semaphore) Release(e *Engine) {
	s.avail++
	s.cond.Signal(e)
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

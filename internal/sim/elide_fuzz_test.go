package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// A fuzz program is a tree of process scripts decoded from the fuzz input,
// plus processes that repeatedly wait on a Cond their own timer signals and
// optional panicking and stopping callbacks. Running it twice, once under
// the run loops (which elide wake-ups and host parks) and once under
// stepUntil (which does neither), must give the same trace.

type opKind uint8

const (
	opSleep opKind = iota
	opWait
	opSignal
	opBroadcast
	opSpawn
	opAt
	opAfter
	opCancel
	numOps
)

type progOp struct {
	kind  opKind
	d     Duration // sleep or timer delay
	cond  int      // condition variable index
	child *script  // opSpawn
}

type script struct{ ops []progOp }

// condLoop is a process that arms a timer whose callback signals the
// process's own Cond, waits on it, and does so n times.
type condLoop struct {
	n int
	d Duration
}

type program struct {
	procs        []*script
	limits       [2]Time // successive RunUntil limits; +Inf runs with Run
	intrEvery    int     // interrupt stride, 0 = no hook
	intrAt       int     // the poll that reports true, 0 = never
	timerSignals bool    // timer callbacks signal a condition
	loops        []condLoop
	panicAt      Time // a callback panics at this time; < 0 = none
	stopAt       Time // a callback stops the engine at this time; < 0 = none
}

// fuzzDurations makes exact ties common: several entries coincide, and
// sums of them land on each other.
var fuzzDurations = [...]Duration{0, 0, 0.25, 0.5, 0.5, 1, 1, 2, 3, 0.75}

var fuzzLimits = [...]Time{math.Inf(1), 0, 0.5, 1, 1.75, 2, 3, 4.5, 8}

// fuzzCallbackTimes are the panicking and stopping callbacks' times; the
// first entry means none.
var fuzzCallbackTimes = [...]Time{-1, 0, 0.5, 1, 1.5, 2, 3, 4.5}

type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

func decodeScript(r *byteReader, depth int) *script {
	s := &script{}
	n := 1 + r.next()%8
	for i := 0; i < n; i++ {
		op := progOp{kind: opKind(r.next() % int(numOps))}
		switch op.kind {
		case opSleep, opAt, opAfter:
			op.d = fuzzDurations[r.next()%len(fuzzDurations)]
			op.cond = r.next() % 2
		case opWait, opSignal, opBroadcast, opCancel:
			op.cond = r.next() % 2
		case opSpawn:
			if depth >= 2 {
				op.kind = opSleep // a yield: spawns nest at most two deep
				break
			}
			op.child = decodeScript(r, depth+1)
		}
		s.ops = append(s.ops, op)
	}
	return s
}

func decodeProgram(data []byte) program {
	r := &byteReader{b: data}
	var p program
	nprocs := 1 + r.next()%8
	p.limits[0] = fuzzLimits[r.next()%len(fuzzLimits)]
	p.limits[1] = math.Max(p.limits[0], fuzzLimits[r.next()%len(fuzzLimits)])
	if k := r.next() % 6; k > 0 {
		p.intrEvery = k
		p.intrAt = r.next() % 8
	}
	p.timerSignals = r.next()%2 == 1
	for i := 0; i < nprocs; i++ {
		p.procs = append(p.procs, decodeScript(r, 0))
	}
	// The extension reads past the scripts, so an input that ends there
	// (as the first corpus entries do) decodes to the program it always
	// did: no loops, no panicking or stopping callback.
	nloops := r.next() % 4
	for i := 0; i < nloops; i++ {
		p.loops = append(p.loops, condLoop{n: 1 + r.next()%8, d: fuzzDurations[r.next()%len(fuzzDurations)]})
	}
	p.panicAt = fuzzCallbackTimes[r.next()%len(fuzzCallbackTimes)]
	p.stopAt = fuzzCallbackTimes[r.next()%len(fuzzCallbackTimes)]
	return p
}

type traceEntry struct {
	t    Time
	who  string
	step int
}

type runOutcome struct {
	log     []traceEntry
	errs    [2]string
	now     Time
	pending int
	live    int
	seq     uint64
	stats   Stats
}

// hostCounts say how often a run took the hosted path: Cond wake-ups taken
// with no dispatch, and timer callbacks fired on a process's coroutine.
type hostCounts struct {
	wakes, callbacks int
}

// execute runs the program on a fresh engine, driving each phase with
// drive, and returns everything observable about the run, and how often it
// took the hosted path.
func (pr program) execute(drive func(e *Engine, limit Time) error) (runOutcome, hostCounts) {
	e := New()
	var out runOutcome
	var hosted hostCounts
	var conds [2]Cond
	var timers []Timer
	logf := func(who string, step int) {
		out.log = append(out.log, traceEntry{e.Now(), who, step})
	}
	// wait parks p on c, counting a wake-up that took no dispatch: only a
	// hosted park resumes a process without one.
	wait := func(p *Proc, c *Cond) {
		before := e.stats.Dispatches
		c.Wait(p)
		if e.stats.Dispatches == before {
			hosted.wakes++
		}
	}
	hostedCallback := func() {
		if e.current != nil {
			hosted.callbacks++
		}
	}
	var body func(name string, s *script) func(p *Proc)
	body = func(name string, s *script) func(p *Proc) {
		return func(p *Proc) {
			for i, op := range s.ops {
				logf(name, i)
				switch op.kind {
				case opSleep:
					p.Sleep(op.d)
				case opWait:
					wait(p, &conds[op.cond])
				case opSignal:
					conds[op.cond].Signal(e)
				case opBroadcast:
					conds[op.cond].Broadcast(e)
				case opSpawn:
					e.Go(fmt.Sprintf("%s.%d", name, i), body(fmt.Sprintf("%s.%d", name, i), op.child))
				case opAt, opAfter:
					id := len(timers)
					c := op.cond
					fn := func() {
						hostedCallback()
						logf(fmt.Sprintf("timer%d", id), 0)
						if pr.timerSignals {
							conds[c].Signal(e)
						}
					}
					if op.kind == opAt {
						timers = append(timers, e.At(e.Now()+op.d, fn))
					} else {
						timers = append(timers, e.After(op.d, fn))
					}
				case opCancel:
					if len(timers) > 0 {
						step := -1
						if timers[(i+op.cond)%len(timers)].Cancel() {
							step = -2
						}
						logf(name+"/cancel", step)
					}
				}
			}
			logf(name, len(s.ops))
		}
	}
	for i, s := range pr.procs {
		name := fmt.Sprintf("p%d", i)
		e.Go(name, body(name, s))
	}
	for i, l := range pr.loops {
		name := fmt.Sprintf("l%d", i)
		var c Cond
		signal := func() {
			hostedCallback()
			logf(name+"/timer", 0)
			c.Signal(e)
		}
		e.Go(name, func(p *Proc) {
			for j := 0; j < l.n; j++ {
				logf(name, j)
				e.After(l.d, signal)
				wait(p, &c)
			}
			logf(name, l.n)
		})
	}
	if pr.panicAt >= 0 {
		e.At(pr.panicAt, func() {
			hostedCallback()
			logf("panic", 0)
			panic(fmt.Sprintf("boom at %g", e.Now()))
		})
	}
	if pr.stopAt >= 0 {
		e.At(pr.stopAt, func() {
			hostedCallback()
			logf("stop", 0)
			e.Stop()
		})
	}
	if pr.intrEvery > 0 {
		polls := 0
		e.SetInterrupt(pr.intrEvery, func() bool {
			polls++
			logf("poll", polls)
			return polls == pr.intrAt
		})
	}
	// A callback's panic leaves the drive as a panic; the engine stays
	// usable, so the next phase runs on.
	driveOrPanic := func(limit Time) (err error, panicked any) {
		defer func() { panicked = recover() }()
		return drive(e, limit), nil
	}
	for i, limit := range pr.limits {
		err, pv := driveOrPanic(limit)
		if pv != nil {
			out.errs[i] = fmt.Sprintf("panic: %v", pv)
			continue
		}
		if err != nil {
			out.errs[i] = err.Error()
			if !errors.Is(err, ErrInterrupted) {
				break
			}
		}
	}
	out.now, out.pending, out.live, out.seq, out.stats = e.Now(), e.PendingEvents(), e.LiveProcs(), e.seq, e.Stats()
	e.Shutdown()
	return out, hosted
}

// runLoop drives a phase with the real run loops: Run for an infinite
// limit, RunUntil otherwise.
func runLoop(e *Engine, limit Time) error {
	if math.IsInf(limit, 1) {
		return e.Run()
	}
	return e.RunUntil(limit)
}

// checkElisionEquivalence runs the program decoded from data both ways,
// compares them and returns how many wakes the run loops elided and how
// often they took the hosted path.
func checkElisionEquivalence(t *testing.T, data []byte) (uint64, hostCounts) {
	pr := decodeProgram(data)
	got, hosted := pr.execute(runLoop)
	ref, refHosted := pr.execute(stepUntil)
	if ref.stats.Elided != 0 || refHosted != (hostCounts{}) {
		t.Fatalf("the Step reference elided %d wakes and hosted %+v", ref.stats.Elided, refHosted)
	}
	if len(got.log) != len(ref.log) {
		t.Fatalf("trace length %d under the run loops, %d under Step\nrun:  %v\nstep: %v",
			len(got.log), len(ref.log), got.log, ref.log)
	}
	for i := range got.log {
		if got.log[i] != ref.log[i] {
			t.Fatalf("trace entry %d: %+v under the run loops, %+v under Step", i, got.log[i], ref.log[i])
		}
	}
	if got.errs != ref.errs || got.now != ref.now || got.pending != ref.pending ||
		got.live != ref.live || got.seq != ref.seq {
		t.Fatalf("end state differs:\nrun:  errs %q now %g pending %d live %d seq %d\nstep: errs %q now %g pending %d live %d seq %d",
			got.errs, got.now, got.pending, got.live, got.seq, ref.errs, ref.now, ref.pending, ref.live, ref.seq)
	}
	if got.stats.Callbacks != ref.stats.Callbacks || got.stats.Dispatches+got.stats.Elided != ref.stats.Dispatches {
		t.Fatalf("stats %+v under the run loops, %+v under Step", got.stats, ref.stats)
	}
	return got.stats.Elided, hosted
}

// FuzzSleepElision checks that taking wake-ups in place changes nothing
// observable: random programs of sleeping, waiting, signalling and spawning
// processes, processes woken by their own timers, scheduled and canceled
// timers and panicking and stopping callbacks, under one or two RunUntil
// limits and an optional interrupt hook, give the same trace, clock,
// sequence number, queue and live processes under the run loops as under a
// Step loop, and Dispatches+Elided equals the Step loop's Dispatches.
func FuzzSleepElision(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 0, 0, 0, 7, 0, 5, 0, 4, 0, 1, 0, 7, 0, 2, 0, 1, 5, 6, 0, 3})
	f.Add([]byte{7, 8, 2, 3, 5, 1, 4, 1, 2, 0, 0, 1, 3, 0, 4, 0, 5, 1, 6, 7, 0, 2, 1, 5, 3, 1, 0, 9, 9})
	// One sleeper beside two timer-woken loops; the same with a panicking
	// callback at 1 s and a stop at 3 s, and under the limits 4.5 and 8;
	// and one zero-delay loop under an interrupt stride of 3.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 5, 0, 2, 7, 5, 7, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 5, 0, 2, 7, 5, 7, 2, 3, 6})
	f.Add([]byte{0, 7, 8, 0, 0, 0, 0, 5, 0, 2, 7, 5, 7, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 3, 5, 0, 0, 0, 5, 0, 1, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { checkElisionEquivalence(t, data) })
}

// TestSleepElisionPrograms runs a fixed batch of pseudo-random programs
// through the fuzz check, so the equivalence is exercised well beyond the
// seed corpus on every test run. The batch must reach both in-place paths:
// an elided sleep, and a hosted park that fired a callback and took its
// wake-up in place.
func TestSleepElisionPrograms(t *testing.T) {
	var elided uint64
	var hosted hostCounts
	state := uint64(1)
	for i := 0; i < 500; i++ {
		data := make([]byte, 64)
		for j := range data {
			state = state*6364136223846793005 + 1442695040888963407
			data[j] = byte(state >> 56)
		}
		n, h := checkElisionEquivalence(t, data)
		elided += n
		hosted.wakes += h.wakes
		hosted.callbacks += h.callbacks
	}
	if elided == 0 {
		t.Fatal("no program elided a wake")
	}
	if hosted.wakes == 0 || hosted.callbacks == 0 {
		t.Fatalf("no program took a hosted wake-up: %+v", hosted)
	}
	t.Logf("%d wakes elided; %d hosted wake-ups, %d hosted callbacks", elided, hosted.wakes, hosted.callbacks)
}

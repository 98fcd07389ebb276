package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// A fuzz program is a tree of process scripts decoded from the fuzz input.
// Running it twice, once under the run loops (which elide wake-ups) and
// once under stepUntil (which never does), must give the same trace.

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

type program struct {
	procs        []*script
	limits       [2]Time // successive RunUntil limits; +Inf runs with Run
	intrEvery    int     // interrupt stride, 0 = no hook
	intrAt       int     // the poll that reports true, 0 = never
	timerSignals bool    // timer callbacks signal a condition
}

// fuzzDurations makes exact ties common: several entries coincide, and
// sums of them land on each other.
var fuzzDurations = [...]Duration{0, 0, 0.25, 0.5, 0.5, 1, 1, 2, 3, 0.75}

var fuzzLimits = [...]Time{math.Inf(1), 0, 0.5, 1, 1.75, 2, 3, 4.5, 8}

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

// execute runs the program on a fresh engine, driving each phase with
// drive, and returns everything observable about the run.
func (pr program) execute(drive func(e *Engine, limit Time) error) runOutcome {
	e := New()
	var out runOutcome
	var conds [2]Cond
	var timers []Timer
	logf := func(who string, step int) {
		out.log = append(out.log, traceEntry{e.Now(), who, step})
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
					conds[op.cond].Wait(p)
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
	if pr.intrEvery > 0 {
		polls := 0
		e.SetInterrupt(pr.intrEvery, func() bool {
			polls++
			logf("poll", polls)
			return polls == pr.intrAt
		})
	}
	for i, limit := range pr.limits {
		if err := drive(e, limit); err != nil {
			out.errs[i] = err.Error()
			if !errors.Is(err, ErrInterrupted) {
				break
			}
		}
	}
	out.now, out.pending, out.live, out.seq, out.stats = e.Now(), e.PendingEvents(), e.LiveProcs(), e.seq, e.Stats()
	e.Shutdown()
	return out
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
// compares them and returns how many wakes the run loops elided.
func checkElisionEquivalence(t *testing.T, data []byte) uint64 {
	pr := decodeProgram(data)
	got := pr.execute(runLoop)
	ref := pr.execute(stepUntil)
	if ref.stats.Elided != 0 {
		t.Fatalf("the Step reference elided %d wakes", ref.stats.Elided)
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
	return got.stats.Elided
}

// FuzzSleepElision checks that taking wake-ups in place changes nothing
// observable: random programs of sleeping, waiting, signalling and spawning
// processes and scheduled and canceled timers, under one or two RunUntil
// limits and an optional interrupt hook, give the same trace, clock,
// sequence number, queue and live processes under the run loops as under a
// Step loop, and Dispatches+Elided equals the Step loop's Dispatches.
func FuzzSleepElision(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 0, 0, 0, 7, 0, 5, 0, 4, 0, 1, 0, 7, 0, 2, 0, 1, 5, 6, 0, 3})
	f.Add([]byte{7, 8, 2, 3, 5, 1, 4, 1, 2, 0, 0, 1, 3, 0, 4, 0, 5, 1, 6, 7, 0, 2, 1, 5, 3, 1, 0, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) { checkElisionEquivalence(t, data) })
}

// TestSleepElisionPrograms runs a fixed batch of pseudo-random programs
// through the fuzz check, so the equivalence is exercised well beyond the
// seed corpus on every test run.
func TestSleepElisionPrograms(t *testing.T) {
	var elided uint64
	state := uint64(1)
	for i := 0; i < 500; i++ {
		data := make([]byte, 64)
		for j := range data {
			state = state*6364136223846793005 + 1442695040888963407
			data[j] = byte(state >> 56)
		}
		elided += checkElisionEquivalence(t, data)
	}
	if elided == 0 {
		t.Fatal("no program elided a wake")
	}
}

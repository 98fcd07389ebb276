package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/hybridmig/hybridmig/internal/scenario"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// Sentinel causes threaded through run contexts so terminal states are
// classifiable with context.Cause.
var (
	// ErrWallBudget is the runaway-scenario breaker: the run exceeded its
	// wall-clock budget (on top of the virtual-time horizon) and was killed.
	ErrWallBudget = errors.New("service: run wall-clock budget exceeded")
	// ErrCanceledByClient marks a POST /v1/runs/{id}/cancel.
	ErrCanceledByClient = errors.New("service: run canceled by client")
	// ErrShuttingDown marks runs terminated by server shutdown, and is
	// returned by Submit once shutdown has begun.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrQueueFull is returned by Submit when the admission queue is full;
	// the HTTP layer maps it to 429 and the shed counter.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrUnknownRun is returned for lifecycle operations on unknown run IDs.
	ErrUnknownRun = errors.New("service: unknown run")
)

// Config sizes the service.
type Config struct {
	// Workers bounds concurrently executing runs; <= 0 uses GOMAXPROCS.
	Workers int
	// QueueDepth bounds the FIFO admission queue; <= 0 uses 16. A submission
	// that finds the queue full is shed, never blocked.
	QueueDepth int
	// MaxWall caps every run's wall-clock budget (breaker); <= 0 uses 5m.
	// A spec's wall_budget_s can lower it per run but never raise it.
	MaxWall time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxWall <= 0 {
		c.MaxWall = 5 * time.Minute
	}
	return c
}

// State is a run's lifecycle phase.
type State string

// The run lifecycle: Queued -> Running -> one of the three terminal states.
// A queued run that is canceled (or caught by shutdown) goes terminal without
// ever running.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Run is one submitted scenario's lifecycle record.
type Run struct {
	ID   string
	Spec *Spec

	ctx    context.Context
	cancel context.CancelCauseFunc
	log    *eventLog

	mu        sync.Mutex
	state     State
	reason    string // terminal detail: error text, cancel cause
	result    *scenario.Result
	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{} // closed when the run reaches a terminal state
}

// Snapshot is the wire shape of GET /v1/runs/{id}.
type Snapshot struct {
	ID          string  `json:"id"`
	State       State   `json:"state"`
	Reason      string  `json:"reason,omitempty"`
	SubmittedAt string  `json:"submitted_at"`
	StartedAt   string  `json:"started_at,omitempty"`
	FinishedAt  string  `json:"finished_at,omitempty"`
	WallS       float64 `json:"wall_s,omitempty"`
	Events      int     `json:"events"`
}

func (r *Run) snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		ID:          r.ID,
		State:       r.state,
		Reason:      r.reason,
		SubmittedAt: r.submitted.UTC().Format(time.RFC3339Nano),
		Events:      r.log.len(),
	}
	if !r.started.IsZero() {
		s.StartedAt = r.started.UTC().Format(time.RFC3339Nano)
	}
	if !r.finished.IsZero() {
		s.FinishedAt = r.finished.UTC().Format(time.RFC3339Nano)
		if !r.started.IsZero() {
			s.WallS = r.finished.Sub(r.started).Seconds()
		}
	}
	return s
}

// State returns the run's current lifecycle phase.
func (r *Run) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Result returns the collected result once the run is terminal. A failed or
// canceled run may carry a partial result (horizon overrun, mid-run cancel).
func (r *Run) Result() (*scenario.Result, string, State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result, r.reason, r.state
}

// Done is closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Server runs scenarios on a bounded worker pool behind a FIFO admission
// queue. Zero value is not usable; construct with New and call Start.
type Server struct {
	cfg     Config
	metrics *metricsSet

	baseCtx context.Context
	stop    context.CancelCauseFunc

	mu       sync.Mutex
	runs     map[string]*Run
	order    []string
	seq      int
	queue    chan *Run
	draining bool

	wg sync.WaitGroup

	// execute runs one admitted scenario; swapped by tests that need a
	// deterministically blocking executor to pin shed behavior.
	execute func(r *Run)
}

// New builds a stopped server; call Start to spawn the worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:     cfg,
		metrics: &metricsSet{},
		baseCtx: ctx,
		stop:    cancel,
		runs:    make(map[string]*Run),
		queue:   make(chan *Run, cfg.QueueDepth),
	}
	s.execute = s.runScenario
	return s
}

// Start spawns the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for r := range s.queue {
				s.runOne(r)
			}
		}()
	}
}

// Shutdown stops admission, cancels every queued and running run, and waits
// for the workers to drain (or ctx to expire).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.stop(ErrShuttingDown)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit validates the spec and enqueues a run. Spec/scenario validation
// failures return an error wrapping ErrBadSpec or scenario.ErrInvalidScenario
// (HTTP 400); a full queue returns ErrQueueFull (HTTP 429) and bumps the shed
// counter; a draining server returns ErrShuttingDown (HTTP 503).
func (s *Server) Submit(sp *Spec) (*Run, error) {
	sc, err := sp.ToScenario()
	if err != nil {
		return nil, err
	}
	// Reject malformed scenarios at the door: admission is cheap, a worker
	// slot is not.
	if err := sc.Validate(); err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrShuttingDown
	}
	s.seq++
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	r := &Run{
		ID:        fmt.Sprintf("run-%06d", s.seq),
		Spec:      sp,
		ctx:       ctx,
		cancel:    cancel,
		log:       newEventLog(),
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	select {
	case s.queue <- r:
	default:
		cancel(ErrQueueFull)
		s.metrics.shed.Add(1)
		return nil, ErrQueueFull
	}
	s.runs[r.ID] = r
	s.order = append(s.order, r.ID)
	s.metrics.started.Add(1)
	return r, nil
}

// Get returns a run by ID.
func (s *Server) Get(id string) (*Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRun, id)
	}
	return r, nil
}

// List snapshots every run in submission order.
func (s *Server) List() []Snapshot {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	runs := make([]*Run, len(ids))
	for i, id := range ids {
		runs[i] = s.runs[id]
	}
	s.mu.Unlock()
	out := make([]Snapshot, len(runs))
	for i, r := range runs {
		out[i] = r.snapshot()
	}
	return out
}

// Cancel requests cancellation of a queued or running run. Canceling a
// terminal run is a no-op.
func (s *Server) Cancel(id string) (*Run, error) {
	r, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	r.cancel(ErrCanceledByClient)
	return r, nil
}

// QueueDepth samples the admission queue length (the /metrics gauge).
func (s *Server) QueueDepth() int { return len(s.queue) }

// runOne drives one admitted run through its lifecycle on a worker.
func (s *Server) runOne(r *Run) {
	// A cancel (client or shutdown) that landed while the run was queued
	// terminates it without burning the worker slot.
	if r.ctx.Err() != nil {
		r.mu.Lock()
		r.state = StateCanceled
		r.reason = causeText(r.ctx)
		r.finished = time.Now()
		r.mu.Unlock()
		s.metrics.canceled.Add(1)
		r.log.close()
		close(r.done)
		return
	}
	r.mu.Lock()
	r.state = StateRunning
	r.started = time.Now()
	r.mu.Unlock()
	s.metrics.running.Add(1)

	s.execute(r)

	r.mu.Lock()
	r.finished = time.Now()
	wall := r.finished.Sub(r.started).Seconds()
	state := r.state
	r.mu.Unlock()
	s.metrics.running.Add(-1)
	s.metrics.observeWall(wall)
	switch state {
	case StateSucceeded:
		s.metrics.completed.Add(1)
	case StateCanceled:
		s.metrics.canceled.Add(1)
	default:
		s.metrics.failed.Add(1)
	}
	r.log.close()
	close(r.done)
}

// runScenario is the real executor: build the scenario (again — cheap, and it
// keeps Run free of scenario state), arm the breaker, stream trace events
// into the run's log, classify the outcome.
func (s *Server) runScenario(r *Run) {
	budget := s.cfg.MaxWall
	if w := r.Spec.WallBudgetS; w > 0 {
		if d := time.Duration(w * float64(time.Second)); d < budget {
			budget = d
		}
	}
	ctx, spend := context.WithCancelCause(r.ctx)
	defer spend(nil)

	sc, err := r.Spec.ToScenario(scenario.WithObserver(trace.ObserverFunc(r.log.append)))
	if err != nil { // unreachable: Submit already translated this spec
		r.setTerminal(StateFailed, nil, err.Error())
		return
	}
	res, err := sc.RunContext(budgetCtx{Context: ctx, spend: spend, deadline: time.Now().Add(budget)})
	switch {
	case err == nil:
		r.setTerminal(StateSucceeded, res, "")
	case errors.As(err, new(*scenario.CanceledError)):
		cause := context.Cause(ctx)
		if errors.Is(cause, ErrWallBudget) {
			s.metrics.breaker.Add(1)
			r.setTerminal(StateFailed, res, fmt.Sprintf("%v (budget %s)", ErrWallBudget, budget))
			return
		}
		r.setTerminal(StateCanceled, res, cause.Error())
	default:
		r.setTerminal(StateFailed, res, err.Error())
	}
}

// budgetCtx is the context a run polls between events. Once the wall clock
// passes the deadline, Err cancels the run with ErrWallBudget. The poll is
// the breaker: no timer backs it, because a timer can fire milliseconds late
// while the simulation keeps its thread busy, and a run shorter than the lag
// would reach its horizon unbroken.
type budgetCtx struct {
	context.Context
	spend    context.CancelCauseFunc // cancels the run's context with a cause
	deadline time.Time
}

func (c budgetCtx) Err() error {
	if c.Context.Err() == nil && !time.Now().Before(c.deadline) {
		c.spend(ErrWallBudget)
	}
	return c.Context.Err()
}

func (r *Run) setTerminal(st State, res *scenario.Result, reason string) {
	r.mu.Lock()
	r.state = st
	r.result = res
	r.reason = reason
	r.mu.Unlock()
}

func causeText(ctx context.Context) string {
	if c := context.Cause(ctx); c != nil {
		return c.Error()
	}
	return context.Canceled.Error()
}

// eventLog is an append-only record of one run's trace events supporting
// replay-then-follow streaming: append wakes every waiter, close marks the
// log complete.
type eventLog struct {
	mu     sync.Mutex
	events []trace.Event
	closed bool
	wait   chan struct{} // closed and replaced on every append/close
}

func newEventLog() *eventLog {
	return &eventLog{wait: make(chan struct{})}
}

// append implements trace.ObserverFunc's shape; it runs synchronously inside
// the simulation's emitting layer, so it must stay cheap and must not touch
// simulation state.
func (l *eventLog) append(e trace.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	ch := l.wait
	l.wait = make(chan struct{})
	l.mu.Unlock()
	close(ch)
}

func (l *eventLog) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	ch := l.wait
	l.wait = make(chan struct{})
	l.mu.Unlock()
	close(ch)
}

func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// next returns events from index from on, whether the log is complete, and a
// channel that is closed on the next change (only meaningful when it returned
// no new events and the log is still open).
func (l *eventLog) next(from int) ([]trace.Event, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var evs []trace.Event
	if from < len(l.events) {
		evs = l.events[from:len(l.events):len(l.events)]
	}
	return evs, l.closed, l.wait
}

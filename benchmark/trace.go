package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/scenario"
	"github.com/hybridmig/hybridmig/internal/service"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// tally counts the simulated work of the traced pass: trace-bus events (it
// is the trace.Observer of every traced cell, or is fed the NDJSON stream of
// service runs) and totals read from results. These counts are exact: a
// change that moves one changed the model, not its speed. All methods are
// no-ops on a nil tally, which is what untraced runs pass around.
type tally struct {
	mu         sync.Mutex
	runs       int
	virtualS   float64
	traffic    float64
	pushed     float64
	pulled     float64
	prefetch   float64
	guestIO    float64
	migrations int
	phases     int
	rounds     int
	admissions int
	streamed   int
}

// OnEvent implements trace.Observer.
func (t *tally) OnEvent(e trace.Event) { t.addKind(e.Kind.String()) }

// addKind counts one event by its wire name.
func (t *tally) addKind(kind string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch kind {
	case trace.KindMigrationCompleted.String():
		t.migrations++
	case trace.KindPhase.String():
		t.phases++
	case trace.KindRound.String():
		t.rounds++
	case trace.KindJobAdmitted.String():
		t.admissions++
	}
}

// addStreamed counts events a service client received.
func (t *tally) addStreamed(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.streamed += n
	t.mu.Unlock()
}

func (t *tally) addResult(r *scenario.Result) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	t.virtualS += r.Clock
	for _, b := range r.Traffic {
		t.traffic += b
	}
	for i := range r.VMs {
		v := &r.VMs[i]
		t.pushed += v.Core.PushedBytes
		t.pulled += v.Core.PulledBytes
		t.prefetch += v.Core.PrefetchBytes
		t.guestIO += v.Workload.ReadBytes + v.Workload.WriteBytes
	}
}

// addResultJSON is addResult for a result received over HTTP.
func (t *tally) addResultJSON(r *service.ResultJSON) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	t.virtualS += r.ClockS
	for _, b := range r.Traffic {
		t.traffic += b
	}
	for i := range r.VMs {
		v := &r.VMs[i]
		t.pushed += v.Core.PushedBytes
		t.pulled += v.Core.PulledBytes
		t.prefetch += v.Core.PrefetchBytes
		t.guestIO += v.Workload.ReadBytes + v.Workload.WriteBytes
	}
}

// counts renders the tally as per-layer metrics.
func (t *tally) counts() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	gb := func(b float64) float64 { return b / params.GB }
	return map[string]float64{
		"scenario.runs":           float64(t.runs),
		"sim.virtual_s":           t.virtualS,
		"cluster.migrations":      float64(t.migrations),
		"core.phase_events":       float64(t.phases),
		"hv.precopy_rounds":       float64(t.rounds),
		"sched.admissions":        float64(t.admissions),
		"flow.traffic_gb":         gb(t.traffic),
		"core.pushed_gb":          gb(t.pushed),
		"core.pulled_gb":          gb(t.pulled),
		"core.prefetch_gb":        gb(t.prefetch),
		"workload.guest_io_gb":    gb(t.guestIO),
		"service.events_streamed": float64(t.streamed),
	}
}

// span is one timed call at a layer boundary, recorded by the benchmark
// around its calls into the program.
type span struct {
	Name    string  `json:"name"`
	Run     string  `json:"run"`
	StartUS float64 `json:"start_us"` // since the child started
	DurUS   float64 `json:"dur_us"`
}

// spanLog keeps the traced run's spans in memory until the child exits. A
// nil log records nothing.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// record adds a span that started at start and ends now.
func (l *spanLog) record(name, run string, start time.Time) {
	if l == nil {
		return
	}
	end := time.Now()
	l.mu.Lock()
	l.spans = append(l.spans, span{
		Name: name, Run: run,
		StartUS: float64(start.Sub(l.t0).Nanoseconds()) / 1e3,
		DurUS:   float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
	l.mu.Unlock()
}

// write saves the spans as one JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

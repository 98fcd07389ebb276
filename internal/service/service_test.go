package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/scenario"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// quickSpec is a one-VM migration that finishes in milliseconds.
func quickSpec() *Spec {
	return &Spec{
		Nodes:       4,
		SeedCapture: true,
		VMs: []VMSpec{{
			Name: "vm0", Node: 0, Approach: "our-approach",
			Workload: &WorkloadSpec{Kind: "rewrite"},
		}},
		Migrations: []MigrationSpec{{VM: "vm0", Dst: 1, AtS: 3}},
	}
}

// longSpec is a serial campaign that keeps a worker busy long enough to
// cancel or break mid-flight.
func longSpec() *Spec {
	rw := params.DefaultRewrite()
	rw.Iterations = 4096
	rw.Interval = 0.1
	sp := &Spec{Nodes: 8, HorizonS: 600}
	var steps []StepSpec
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		sp.VMs = append(sp.VMs, VMSpec{
			Name: name, Node: 0, Approach: "our-approach",
			Workload: &WorkloadSpec{Kind: "rewrite", Rewrite: &rw},
		})
		steps = append(steps, StepSpec{VM: name, Dst: 1})
	}
	sp.Campaigns = []CampaignSpec{{AtS: 1, Policy: "serial", Steps: steps}}
	return sp
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func waitTerminal(t *testing.T, r *Run) {
	t.Helper()
	select {
	case <-r.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("run %s did not finish (state %s)", r.ID, r.State())
	}
}

// TestSubmitRunsAndMatchesLibrary is the end-to-end identity contract: a
// posted spec validates, runs on the pool, and its typed JSON result is
// bit-identical to the same spec run through the library API.
func TestSubmitRunsAndMatchesLibrary(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 4})
	r, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, r)
	res, reason, state := r.Result()
	if state != StateSucceeded {
		t.Fatalf("state %s (%s), want succeeded", state, reason)
	}
	got, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}

	sc, err := quickSpec().ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	libRes, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(libRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("service result differs from library run:\nservice: %s\nlibrary: %s", got, want)
	}
}

// TestDeterministicResults pins the serving determinism contract: two
// identical submissions return bit-identical result bytes.
func TestDeterministicResults(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 4})
	var raws [2][]byte
	for i := range raws {
		r, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, r)
		res, reason, state := r.Result()
		if state != StateSucceeded {
			t.Fatalf("run %d: state %s (%s)", i, state, reason)
		}
		raws[i], err = EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(raws[0], raws[1]) {
		t.Fatalf("identical submissions diverge:\n%s\nvs\n%s", raws[0], raws[1])
	}
}

// TestShedWhenSaturated saturates the pool with a deterministically blocking
// executor: W running + Q queued, the next submission is shed with
// ErrQueueFull (HTTP 429 at the API layer) and counted.
func TestShedWhenSaturated(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 2})
	gate := make(chan struct{})
	running := make(chan string, 8)
	s.execute = func(r *Run) {
		running <- r.ID
		<-gate
		r.setTerminal(StateSucceeded, nil, "")
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	var runs []*Run
	for i := 0; i < 2; i++ { // occupy both workers
		r, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-running:
		case <-time.After(10 * time.Second):
			t.Fatal("workers did not pick up runs")
		}
	}
	for i := 0; i < 2; i++ { // fill the queue
		r, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}

	// Saturated: the next submission must shed, both via the API...
	if _, err := s.Submit(quickSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated submit: %v, want ErrQueueFull", err)
	}
	// ...and over HTTP with a 429.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postSpec(t, ts, quickSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d, want 429", resp.StatusCode)
	}
	if got := s.metrics.shed.Load(); got != 2 {
		t.Fatalf("shed counter = %d, want 2", got)
	}

	close(gate)
	for _, r := range runs {
		waitTerminal(t, r)
		if st := r.State(); st != StateSucceeded {
			t.Fatalf("run %s state %s after release", r.ID, st)
		}
	}
	if got := s.metrics.completed.Load(); got != 4 {
		t.Fatalf("completed counter = %d, want 4", got)
	}
}

// TestCancelWhileQueued: a cancel that lands before a worker picks the run up
// terminates it without running it.
func TestCancelWhileQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	running := make(chan string, 8)
	s.execute = func(r *Run) {
		running <- r.ID
		<-gate
		r.setTerminal(StateSucceeded, nil, "")
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	blocker, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-running
	queued, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitTerminal(t, queued)
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued-then-canceled run state %s, want canceled", st)
	}
	if _, reason, _ := queued.Result(); !strings.Contains(reason, "canceled by client") {
		t.Fatalf("reason %q does not name the client cancel", reason)
	}
	waitTerminal(t, blocker)
}

// TestCancelMidRunNoLeak cancels a real long-running scenario mid-flight:
// the run must land in state canceled with a typed reason, promptly, and the
// engine's process goroutines must all be released.
func TestCancelMidRunNoLeak(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 2})
	before := runtime.NumGoroutine()

	r, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first trace event — proof the scenario is executing.
	for {
		evs, closed, changed := r.log.next(0)
		if len(evs) > 0 {
			break
		}
		if closed {
			t.Fatalf("run finished before emitting events (state %s)", r.State())
		}
		select {
		case <-changed:
		case <-time.After(30 * time.Second):
			t.Fatal("no trace events")
		}
	}
	if _, err := s.Cancel(r.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, r)
	if st := r.State(); st != StateCanceled {
		_, reason, _ := r.Result()
		t.Fatalf("state %s (%s), want canceled", st, reason)
	}
	if _, reason, _ := r.Result(); !strings.Contains(reason, "canceled by client") {
		t.Fatalf("reason %q does not name the client cancel", reason)
	}

	// The worker goroutine persists (pool), but every simulation process
	// goroutine must be gone.
	for i := 0; ; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPCancel drives POST /v1/runs/{id}/cancel: against a running run it
// answers 202 with the run's snapshot and the run ends canceled by the
// client; an unknown ID gets 404. The run's executor holds it running until
// its context is canceled, so the cancel always lands mid-run.
func TestHTTPCancel(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	running := make(chan struct{})
	s.execute = func(r *Run) {
		close(running)
		<-r.ctx.Done()
		r.setTerminal(StateCanceled, nil, causeText(r.ctx))
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-running
	resp, err := http.Post(ts.URL+"/v1/runs/"+r.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("cancel = %d, want 202", resp.StatusCode)
	}
	var snap Snapshot
	decodeBody(t, resp, &snap)
	// The cancel is a request: the snapshot may be taken before the
	// executor has seen it.
	if snap.ID != r.ID || (snap.State != StateRunning && snap.State != StateCanceled) {
		t.Fatalf("cancel snapshot %+v, want run %s running or canceled", snap, r.ID)
	}
	waitTerminal(t, r)
	if _, reason, st := r.Result(); st != StateCanceled || !strings.Contains(reason, "canceled by client") {
		t.Fatalf("state %s (%q), want canceled by client", st, reason)
	}

	resp, err = http.Post(ts.URL+"/v1/runs/run-999999/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel of an unknown run = %d, want 404", resp.StatusCode)
	}
}

// TestWallBudgetBreaker: a run whose wall budget is far below its real cost
// is killed by the breaker and lands in state failed with the typed reason.
func TestWallBudgetBreaker(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 2})
	sp := longSpec()
	sp.WallBudgetS = 0.001
	r, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, r)
	_, reason, state := r.Result()
	if state != StateFailed {
		t.Fatalf("state %s (%s), want failed", state, reason)
	}
	if !strings.Contains(reason, "wall-clock budget") {
		t.Fatalf("reason %q does not name the wall budget", reason)
	}
	if got := s.metrics.breaker.Load(); got != 1 {
		t.Fatalf("breaker counter = %d, want 1", got)
	}
}

// TestStreamOrderingMatchesBus compares the NDJSON stream against an
// in-process observer on the same spec: same seed, same synchronous bus,
// so the two event sequences must match record for record.
func TestStreamOrderingMatchesBus(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSpec(t, ts, quickSpec())
	var snap Snapshot
	decodeBody(t, resp, &snap)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", resp.StatusCode)
	}

	// Stream events (replay + follow until terminal).
	eresp, err := http.Get(ts.URL + "/v1/runs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	var streamed []eventJSON
	var finished *eventJSON
	sc := bufio.NewScanner(eresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var e eventJSON
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Kind == "run-finished" {
			finished = &e
			continue
		}
		streamed = append(streamed, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if finished == nil || finished.State != StateSucceeded {
		t.Fatalf("stream did not end with a succeeded run-finished record: %+v", finished)
	}

	// The in-process reference: same spec through the library with a
	// recording observer.
	var want []eventJSON
	rec := trace.ObserverFunc(func(e trace.Event) { want = append(want, toEventJSON(e)) })
	lib, err := quickSpec().ToScenario(scenario.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Run(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) == 0 {
		t.Fatal("no events streamed")
	}
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d events, library bus saw %d", len(streamed), len(want))
	}
	for i := range want {
		if streamed[i] != want[i] {
			t.Fatalf("event %d differs:\nstream: %+v\nbus:    %+v", i, streamed[i], want[i])
		}
	}
}

// TestHTTPLifecycle drives the remaining endpoints: status, result, list,
// metrics, healthz/readyz, bad-spec 400s and unknown-run 404s.
func TestHTTPLifecycle(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Invalid specs are rejected at the door with 400.
	for name, body := range map[string]string{
		"malformed JSON":   `{`,
		"unknown field":    `{"bogus": 1}`,
		"unknown approach": `{"vms": [{"name": "a", "approach": "warp-drive"}]}`,
		"unknown workload": `{"vms": [{"name": "a", "approach": "our-approach", "workload": {"kind": "mine-bitcoin"}}]}`,
		"unknown fault":    `{"vms": [{"name": "a", "approach": "our-approach"}], "faults": [{"kind": "gremlin", "at_s": 1}]}`,
		"batched sans k":   `{"vms": [{"name": "a", "approach": "our-approach"}], "campaigns": [{"policy": "batched", "steps": [{"vm": "a", "dst": 1}]}]}`,
		"no VMs":           `{}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// A good run: 202, then status/result/list agree.
	resp := postSpec(t, ts, quickSpec())
	var snap Snapshot
	decodeBody(t, resp, &snap)
	if resp.StatusCode != http.StatusAccepted || snap.ID == "" {
		t.Fatalf("POST = %d %+v", resp.StatusCode, snap)
	}
	r, err := s.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, r)

	sresp, err := http.Get(ts.URL + "/v1/runs/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, sresp, &snap)
	if snap.State != StateSucceeded || snap.Events == 0 || snap.WallS <= 0 {
		t.Fatalf("terminal snapshot %+v", snap)
	}

	rresp, err := http.Get(ts.URL + "/v1/runs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var body resultBody
	decodeBody(t, rresp, &body)
	if rresp.StatusCode != http.StatusOK || body.State != StateSucceeded || len(body.Result) == 0 {
		t.Fatalf("result = %d %+v", rresp.StatusCode, body)
	}

	lresp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Runs []Snapshot `json:"runs"`
	}
	decodeBody(t, lresp, &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != snap.ID {
		t.Fatalf("list = %+v", list)
	}

	// Unknown IDs are 404 on every per-run endpoint.
	for _, path := range []string{"/v1/runs/run-999999", "/v1/runs/run-999999/result", "/v1/runs/run-999999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	// Metrics exposition carries the counters and the histogram.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := new(bytes.Buffer)
	mb.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"migsimd_runs_started_total 1",
		"migsimd_runs_completed_total 1",
		"migsimd_runs_shed_total 0",
		"migsimd_queue_depth 0",
		"migsimd_run_wall_seconds_count 1",
		`migsimd_run_wall_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, mb.String())
		}
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestShutdownCancelsQueuedRuns: Shutdown terminates queued runs as canceled
// and readyz flips to 503.
func TestShutdownCancelsQueuedRuns(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	running := make(chan string, 4)
	s.execute = func(r *Run) {
		running <- r.ID
		<-r.ctx.Done()
		r.setTerminal(StateCanceled, nil, causeText(r.ctx))
	}
	s.Start()

	blocker, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-running
	queued, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown hung")
	}
	waitTerminal(t, blocker)
	waitTerminal(t, queued)
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued run state %s after shutdown, want canceled", st)
	}
	if _, err := s.Submit(quickSpec()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: %v, want ErrShuttingDown", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown = %d, want 503", resp.StatusCode)
	}
}

func postSpec(t *testing.T, ts *httptest.Server, sp *Spec) *http.Response {
	t.Helper()
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

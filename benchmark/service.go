package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridmig/hybridmig/internal/service"
)

// serviceStrategies are the strategies cmd/migsimd registers. The daemon
// does not import internal/strategy/adaptive, so a real client gets 400 for
// "adaptive"; the mix leaves it out to match.
var serviceStrategies = []string{"our-approach", "mirror", "postcopy", "precopy", "pvfs-shared", "multiattach"}

// specCase is one request of the service mix with the reference it must
// reproduce: the canonical result bytes of a library run of the same spec.
type specCase struct {
	name   string
	body   []byte
	ref    []byte
	digest string
}

// serviceCases builds the 12-spec mix (6 strategies x {ior, asyncwr}, one
// small-scale VM migrating after the warm-up) and runs each spec through the
// library once for its reference. The seed rotates the order.
func serviceCases(seed uint64) ([]specCase, error) {
	var cases []specCase
	for _, a := range serviceStrategies {
		for _, kind := range []string{"ior", "asyncwr"} {
			sp := service.Spec{
				VMs:        []service.VMSpec{{Name: "vm0", Node: 0, Approach: a, Workload: &service.WorkloadSpec{Kind: kind}}},
				Migrations: []service.MigrationSpec{{VM: "vm0", Dst: 1, AtS: 8}},
			}
			body, err := json.Marshal(sp)
			if err != nil {
				return nil, err
			}
			sc, err := sp.ToScenario()
			if err != nil {
				return nil, err
			}
			res, err := sc.Run()
			if err != nil {
				return nil, fmt.Errorf("reference run %s/%s: %w", a, kind, err)
			}
			ref, err := service.EncodeResult(res)
			if err != nil {
				return nil, err
			}
			cases = append(cases, specCase{name: a + "/" + kind, body: body, ref: ref, digest: digestResult(res)})
		}
	}
	n := uint64(len(cases))
	rot := int((seed%n + n - 1) % n) // seed 1 keeps the declared order
	return append(cases[rot:], cases[:rot]...), nil
}

// svcHarness is an in-process migsimd (2 workers, queue 16) behind a
// loopback listener, and the client that talks to it.
type svcHarness struct {
	srv       *service.Server
	hs        *http.Server
	serveDone chan struct{}
	base      string
	client    *http.Client
}

func startHarness() (*svcHarness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{Workers: 2, QueueDepth: 16})
	srv.Start()
	h := &svcHarness{
		srv:       srv,
		hs:        &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		serveDone: make(chan struct{}),
		base:      "http://" + ln.Addr().String(),
		client:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
	}
	go func() {
		defer close(h.serveDone)
		h.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return h, nil
}

// close stops the listener, drains the worker pool and waits for both.
func (h *svcHarness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	<-h.serveDone
	h.srv.Shutdown(ctx)
	h.client.CloseIdleConnections()
}

// svcTiming splits one run into its HTTP calls (client side) and, when the
// snapshot was fetched, the server-side queue wait and execution time.
type svcTiming struct {
	submit, stream, result, queueWait, exec time.Duration
}

// do performs one run: POST the spec, follow the NDJSON event stream to
// run-finished, then GET the result and compare it with the reference.
// withSnapshot adds a GET of the run's snapshot for the server-side split.
func (h *svcHarness) do(c *specCase, withSnapshot bool, tl *tally, sl *spanLog) (svcTiming, error) {
	var tm svcTiming
	t0 := time.Now()
	resp, err := h.client.Post(h.base+"/v1/runs", "application/json", bytes.NewReader(c.body))
	if err != nil {
		return tm, err
	}
	var snap service.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return tm, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return tm, fmt.Errorf("submit: %w", err)
	}
	tm.submit = time.Since(t0)
	sl.record("http.submit", snap.ID, t0)

	t1 := time.Now()
	final, events, err := h.follow(snap.ID, tl)
	if err != nil {
		return tm, err
	}
	tm.stream = time.Since(t1)
	sl.record("http.events", snap.ID, t1)
	tl.addStreamed(events)
	if final != string(service.StateSucceeded) {
		return tm, fmt.Errorf("run %s ended %q", snap.ID, final)
	}

	t2 := time.Now()
	var body struct {
		Result json.RawMessage `json:"result"`
	}
	if err := h.getJSON("/v1/runs/"+snap.ID+"/result", &body); err != nil {
		return tm, err
	}
	tm.result = time.Since(t2)
	sl.record("http.result", snap.ID, t2)
	if !bytes.Equal(body.Result, c.ref) {
		return tm, fmt.Errorf("run %s: result differs from the library run of %s", snap.ID, c.name)
	}
	if tl != nil {
		var rj service.ResultJSON
		if err := json.Unmarshal(body.Result, &rj); err != nil {
			return tm, err
		}
		tl.addResultJSON(&rj)
	}

	if withSnapshot {
		var s service.Snapshot
		if err := h.getJSON("/v1/runs/"+snap.ID, &s); err != nil {
			return tm, err
		}
		sub, err1 := time.Parse(time.RFC3339Nano, s.SubmittedAt)
		start, err2 := time.Parse(time.RFC3339Nano, s.StartedAt)
		if err := errors.Join(err1, err2); err != nil {
			return tm, fmt.Errorf("snapshot %s: %w", snap.ID, err)
		}
		tm.queueWait = start.Sub(sub)
		tm.exec = time.Duration(s.WallS * float64(time.Second))
	}
	return tm, nil
}

// follow reads a run's NDJSON stream to its run-finished record and
// returns the terminal state and the number of trace events before it.
func (h *svcHarness) follow(id string, tl *tally) (string, int, error) {
	resp, err := h.client.Get(h.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	events := 0
	for sc.Scan() {
		var rec struct {
			Kind  string `json:"kind"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return "", events, fmt.Errorf("events %s: %w", id, err)
		}
		if rec.Kind == "run-finished" {
			return rec.State, events, nil
		}
		events++
		tl.addKind(rec.Kind)
	}
	if err := sc.Err(); err != nil {
		return "", events, err
	}
	return "", events, fmt.Errorf("events %s: stream ended without run-finished", id)
}

func (h *svcHarness) getJSON(path string, v any) error {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// servicePassRuns is the number of runs in one pass of the service
// workload, shared by the two clients: 12 rounds of the 12-spec mix, so the
// seed's rotation changes the order but not the mix.
const servicePassRuns = 144

// setupService starts the daemon and computes the references. A pass is a
// closed loop: each of 2 clients sends its next run only when the previous
// one finished, cycling through the spec mix.
func setupService(o setupOpts) (*plan, error) {
	cases, err := serviceCases(o.seed)
	if err != nil {
		return nil, err
	}
	h, err := startHarness()
	if err != nil {
		return nil, err
	}
	total := servicePassRuns
	if o.smoke {
		total = 20
	}
	execute := func() []runRecord {
		recs := make([]runRecord, total)
		var next atomic.Int64
		var wg sync.WaitGroup
		for client := 0; client < 2; client++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= total {
						return
					}
					c := &cases[i%len(cases)]
					start := time.Now()
					_, err := h.do(c, false, o.tally, o.spans)
					recs[i] = runRecord{Name: c.name, Ms: msSince(start), Digest: c.digest}
					if err != nil {
						recs[i].Digest, recs[i].Err = "", err.Error()
					}
				}
			}()
		}
		wg.Wait()
		return recs
	}
	return &plan{execute: execute, close: h.close}, nil
}

// Package sched is the migration orchestrator: it takes a campaign of live
// migrations and decides when each one runs. The paper migrates VMs one at a
// time or all at once (Section 5.4); follow-up work — Baruchi et al.'s
// cycle-aware orchestration, Voorsluys et al.'s migration cost studies —
// shows that *when* and *how many* migrations run concurrently dominates the
// total cost of a reconfiguration. This package supplies that layer on top
// of the hybrid push/prefetch core.
//
// A campaign is a set of Jobs (one per migration) executed under a Policy:
//
//   - AllAtOnce fires every migration immediately — the paper's Figure 4
//     concurrent scenario, and the worst case for interference.
//   - Serial admits one migration at a time, the other extreme: minimal
//     interference, maximal makespan.
//   - BatchedK caps simultaneous migrations at K (admission control).
//   - CycleAware defers each VM until its workload reports a low-I/O
//     window (or a defer budget expires), following Baruchi et al.'s
//     observation that migrating in a workload's quiet phase shrinks both
//     migration time and dirty-data retransmission.
//
// The orchestrator executes jobs as simulation processes in submission
// order (admission is FIFO, so runs are deterministic), and records a
// metrics.Campaign: makespan, cumulative downtime, peak concurrency, total
// bytes moved while the campaign ran, and a per-flow-tag traffic breakdown
// for interference analysis.
package sched

import (
	"strconv"

	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// Job is one migration of a campaign. Run blocks until the migration fully
// completes. The optional probes let policies and stats see into the
// workload and the migration outcome without sched depending on the cluster
// layer.
type Job struct {
	Name string
	// Run executes the migration; it is called from a dedicated process. A
	// non-nil error means the attempt was torn down (fault-aborted) and the
	// job is eligible for re-admission under the campaign's Retry budget.
	Run func(p *sim.Proc) error
	// LowIO, when non-nil, reports whether the VM's workload is currently
	// in a low-I/O window (CycleAware consults it). Nil means unknown,
	// which policies treat as "always migratable".
	LowIO func() bool
	// Downtime, when non-nil, returns the migration's stop-and-copy
	// duration after Run has completed.
	Downtime func() float64
	// Wasted, when non-nil, returns the cumulative wire bytes this job's
	// instance has wasted on aborted attempts; the campaign records the
	// delta accrued while the job ran.
	Wasted func() float64
	// Fenced, when non-nil, returns the cumulative count of this job's
	// attempts aborted by fencing decisions; the campaign records the delta
	// accrued while the job ran.
	Fenced func() int
}

// Retry bounds re-admission of fault-aborted jobs. The zero value disables
// retries: an aborted job is terminal after its first attempt.
type Retry struct {
	// MaxAttempts is how many times one job may run, first try included;
	// values below 1 mean a single attempt.
	MaxAttempts int
	// Backoff is the delay before an aborted job requests re-admission.
	Backoff float64
	// Factor scales Backoff after each further failure (exponential
	// backoff); values at or below 0 mean 1 (constant backoff).
	Factor float64
}

// attempts returns the effective per-job attempt budget.
func (r Retry) attempts() int {
	if r.MaxAttempts < 1 {
		return 1
	}
	return r.MaxAttempts
}

// Policy decides how a campaign admits its jobs.
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// Width returns the maximum number of simultaneously running
	// migrations for a campaign of n jobs; values <= 0 mean unlimited.
	Width(n int) int
	// AwaitWindow blocks until the job may request admission. All
	// policies except CycleAware return immediately.
	AwaitWindow(p *sim.Proc, j Job)
}

// AllAtOnce starts every migration immediately.
type AllAtOnce struct{}

func (AllAtOnce) Name() string               { return "all-at-once" }
func (AllAtOnce) Width(n int) int            { return n }
func (AllAtOnce) AwaitWindow(*sim.Proc, Job) {}

// Serial runs the campaign one migration at a time, in submission order.
type Serial struct{}

func (Serial) Name() string               { return "serial" }
func (Serial) Width(int) int              { return 1 }
func (Serial) AwaitWindow(*sim.Proc, Job) {}

// BatchedK admits at most K simultaneous migrations.
type BatchedK struct{ K int }

func (b BatchedK) Name() string { return "batched-" + strconv.Itoa(b.K) }
func (b BatchedK) Width(n int) int {
	if b.K <= 0 {
		return n
	}
	return b.K
}
func (BatchedK) AwaitWindow(*sim.Proc, Job) {}

// CycleAware waits for each VM's low-I/O window before admitting it, up to
// a defer budget; an optional K additionally caps concurrency.
type CycleAware struct {
	// K caps simultaneous migrations; <= 0 means unlimited.
	K int
	// Poll is the window-probe interval in seconds (default 0.25).
	Poll float64
	// MaxDefer bounds how long one job may wait for its window before it
	// is migrated anyway (default 60 s); this keeps campaigns live even
	// for workloads that never quiesce.
	MaxDefer float64
}

func (c CycleAware) Name() string { return "cycle-aware" }
func (c CycleAware) Width(n int) int {
	if c.K <= 0 {
		return n
	}
	return c.K
}

func (c CycleAware) AwaitWindow(p *sim.Proc, j Job) {
	if j.LowIO == nil {
		return
	}
	poll := c.Poll
	if poll <= 0 {
		poll = 0.25
	}
	maxDefer := c.MaxDefer
	if maxDefer <= 0 {
		maxDefer = 60
	}
	deadline := p.Now() + maxDefer
	for !j.LowIO() && p.Now() < deadline {
		p.Sleep(poll)
	}
}

// Policies returns the four standard policies for a campaign of n jobs:
// all-at-once, serial, batched at roughly n/4 (at least 2), and cycle-aware.
func Policies(n int) []Policy {
	k := n / 4
	if k < 2 {
		k = 2
	}
	return []Policy{AllAtOnce{}, Serial{}, BatchedK{K: k}, CycleAware{}}
}

// Orchestrator executes migration campaigns on one testbed's engine.
type Orchestrator struct {
	eng *sim.Engine
	net *flow.Net // optional: enables traffic accounting
	// Trace, when non-nil, receives campaign admission events: job
	// queued/admitted/finished plus campaign start/finish brackets.
	Trace *trace.Bus
}

// New returns an orchestrator. net may be nil, in which case campaign
// traffic fields stay zero.
func New(eng *sim.Engine, net *flow.Net) *Orchestrator {
	return &Orchestrator{eng: eng, net: net}
}

// Run executes the campaign under the policy and blocks until every job has
// completed. Jobs are admitted in submission order (FIFO), so identical
// inputs produce identical campaigns. A job whose attempt returns an error
// releases its admission slot, backs off, and rejoins the admission queue at
// the back (re-admission is FIFO with everyone else, so campaigns stay
// deterministic), until it completes or exhausts retry.MaxAttempts; the zero
// Retry makes aborted jobs terminal. Every job therefore reaches a terminal
// state: completed, or exhausted with JobStat.Exhausted set.
func (o *Orchestrator) Run(p *sim.Proc, jobs []Job, pol Policy, retry Retry) *metrics.Campaign {
	eng := o.eng
	c := &metrics.Campaign{
		Policy:   pol.Name(),
		Jobs:     len(jobs),
		Start:    eng.Now(),
		JobStats: make([]metrics.JobStat, len(jobs)),
	}
	emit := func(kind trace.Kind, vm, detail string, value float64) {
		if o.Trace.Active() {
			o.Trace.Emit(trace.Event{Time: eng.Now(), Kind: kind, VM: vm, Detail: detail, Value: value})
		}
	}
	emit(trace.KindCampaignStarted, "", pol.Name(), float64(len(jobs)))
	var before []float64
	if o.net != nil {
		for _, t := range flow.Tags() {
			before = append(before, o.net.BytesByTag(t))
		}
	}

	width := pol.Width(len(jobs))
	if width <= 0 || width > len(jobs) {
		width = len(jobs)
	}
	slots := sim.NewSemaphore(width)
	running := 0
	var wg sim.WaitGroup
	sampleFlows := func() {
		if o.net == nil {
			return
		}
		if n := o.net.ActiveFlows(); n > c.PeakFlows {
			c.PeakFlows = n
		}
	}
	for i := range jobs {
		j := jobs[i]
		st := &c.JobStats[i]
		st.Name = j.Name
		st.Queued = eng.Now()
		emit(trace.KindJobQueued, j.Name, pol.Name(), 0)
		wg.Add(1)
		eng.Go("sched/"+j.Name, func(jp *sim.Proc) {
			var wasted0 float64
			if j.Wasted != nil {
				wasted0 = j.Wasted()
			}
			var fenced0 int
			if j.Fenced != nil {
				fenced0 = j.Fenced()
			}
			backoff := retry.Backoff
			for {
				st.Attempts++
				pol.AwaitWindow(jp, j)
				slots.Acquire(jp)
				running++
				if running > c.PeakConcurrent {
					c.PeakConcurrent = running
				}
				if st.Attempts == 1 {
					st.Started = jp.Now() // first admission; retries extend Duration
				}
				emit(trace.KindJobAdmitted, j.Name, pol.Name(), float64(running))
				sampleFlows()
				err := j.Run(jp)
				if err == nil {
					st.Finished = jp.Now()
					if j.Downtime != nil {
						st.Downtime = j.Downtime()
						c.TotalDowntime += st.Downtime
					}
					emit(trace.KindJobFinished, j.Name, pol.Name(), st.Downtime)
					sampleFlows()
					running--
					slots.Release(eng)
					break
				}
				// The attempt was fault-aborted: give the slot back before
				// backing off so waiting jobs are not starved.
				sampleFlows()
				running--
				slots.Release(eng)
				if st.Attempts >= retry.attempts() {
					st.Exhausted = true
					st.Finished = jp.Now()
					c.ExhaustedJobs++
					emit(trace.KindJobFinished, j.Name, pol.Name(), st.Downtime)
					break
				}
				c.Retries++
				if o.Trace.Active() {
					o.Trace.Emit(trace.Event{Time: eng.Now(), Kind: trace.KindMigrationRetried,
						VM: j.Name, Detail: pol.Name(), Round: st.Attempts + 1})
				}
				if backoff > 0 {
					jp.Sleep(backoff)
				}
				if retry.Factor > 0 {
					backoff *= retry.Factor
				}
			}
			if j.Wasted != nil {
				st.WastedBytes = j.Wasted() - wasted0
				c.WastedBytes += st.WastedBytes
			}
			if j.Fenced != nil {
				st.Fenced = j.Fenced() - fenced0
				c.FencedMigrations += st.Fenced
			}
			wg.Done(eng)
		})
	}
	wg.Wait(p)
	c.End = eng.Now()
	emit(trace.KindCampaignFinished, "", pol.Name(), c.Makespan())
	if o.net != nil {
		for i, t := range flow.Tags() {
			d := o.net.BytesByTag(t) - before[i]
			c.TransferredBytes += d
			if d > 0 {
				c.Traffic = append(c.Traffic, metrics.TagBytes{Tag: t.String(), Bytes: d})
			}
		}
	}
	return c
}

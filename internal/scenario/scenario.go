// Package scenario is the declarative session layer of the reproduction:
// callers describe a testbed, a set of VMs with workloads, and a migration
// plan — per-VM trigger times or an orchestrated campaign under an admission
// policy — then call Run, which assembles everything, drives the simulation
// until it drains, and returns a typed Result (per-VM migration and downtime
// stats, campaign aggregates, workload counters, per-tag traffic) and a real
// error instead of panicking.
//
// The package exists so the public facade (package hybridmig) and the
// experiment harness (internal/experiments) share one execution path: every
// table and figure of the paper is itself just a scenario, and the golden
// determinism suite pins that the declarative path reproduces the original
// hand-wired runs bit for bit.
//
// Determinism contract: Run spawns simulation processes in a fixed order —
// per VM its boot process then its workload (CM1 ranks are started after all
// launches, as the barrier requires every rank), then the timed migrations in
// declaration order, then the campaigns in declaration order. Two runs of an
// identical scenario produce identical Results.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sched"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/strategy"
	"github.com/hybridmig/hybridmig/internal/trace"
	"github.com/hybridmig/hybridmig/internal/workload"
)

// ErrInvalidScenario is wrapped by every scenario validation failure.
var ErrInvalidScenario = errors.New("invalid scenario")

// CanceledError is returned by RunContext when its context was canceled (or
// its deadline exceeded) before the simulation drained. The partial Result
// accompanying it reflects the state at the interruption instant. Detect it
// with errors.As; Unwrap exposes the context's cancellation cause, so
// errors.Is(err, context.Canceled) works through the wrapper too.
type CanceledError struct {
	Clock float64 // virtual time reached when the run stopped
	Cause error   // the context's cancellation cause
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("scenario: run canceled at t=%g s: %v", e.Clock, e.Cause)
}

// Unwrap exposes the cancellation cause.
func (e *CanceledError) Unwrap() error { return e.Cause }

// invalidf builds a validation error wrapping ErrInvalidScenario.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("scenario: "+format+": %w", append(args, ErrInvalidScenario)...)
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// WorkloadKind names a guest workload family.
type WorkloadKind int

// The declarative workload families.
const (
	WorkloadNone WorkloadKind = iota
	WorkloadIOR
	WorkloadAsyncWR
	WorkloadRewrite
)

func (k WorkloadKind) String() string {
	switch k {
	case WorkloadNone:
		return "none"
	case WorkloadIOR:
		return "ior"
	case WorkloadAsyncWR:
		return "asyncwr"
	case WorkloadRewrite:
		return "rewrite"
	}
	return fmt.Sprintf("workload(%d)", int(k))
}

// WorkloadSpec declares the workload one VM runs. Nil parameter pointers
// select the run scale's defaults (Setup values for IOR/AsyncWR,
// params.DefaultRewrite for the rewrite workload).
type WorkloadSpec struct {
	Kind    WorkloadKind
	IOR     *params.IOR
	AsyncWR *params.AsyncWR
	Rewrite *params.Rewrite
	// Deadline, when positive, stops an AsyncWR workload at that absolute
	// virtual time even if iterations remain (fixed-horizon degradation
	// measurements compare counters at a common instant).
	Deadline float64
}

// IOR declares the IOR benchmark; p == nil uses the scale's defaults. IOR
// guests run O_DIRECT (the instance is marked unbuffered), as in the paper.
func IOR(p *params.IOR) WorkloadSpec { return WorkloadSpec{Kind: WorkloadIOR, IOR: p} }

// AsyncWR declares the AsyncWR benchmark; p == nil uses the scale's
// defaults. deadline > 0 bounds the run at that absolute virtual time.
func AsyncWR(p *params.AsyncWR, deadline float64) WorkloadSpec {
	return WorkloadSpec{Kind: WorkloadAsyncWR, AsyncWR: p, Deadline: deadline}
}

// Rewrite declares the hot/cold rewrite workload; p == nil uses
// params.DefaultRewrite.
func Rewrite(p *params.Rewrite) WorkloadSpec { return WorkloadSpec{Kind: WorkloadRewrite, Rewrite: p} }

// VMSpec declares one VM: where it starts, which storage transfer approach
// backs it, and what it runs.
type VMSpec struct {
	Name     string
	Node     int
	Approach cluster.Approach
	Workload WorkloadSpec
}

// Migration is one timed entry of the migration plan: VM (by name) moves to
// the node at Dst, triggered At seconds into the run.
type Migration struct {
	VM  string
	Dst int
	At  float64
}

// Step is one migration of a campaign (trigger timing is the campaign's).
type Step struct {
	VM  string
	Dst int
}

// CampaignSpec is an orchestrated batch of migrations admitted under a
// policy, triggered At seconds into the run.
type CampaignSpec struct {
	At     float64
	Policy sched.Policy
	Steps  []Step
}

// FaultKind names an injectable fault family.
type FaultKind int

// The injectable faults.
const (
	// FaultDestCrash crashes the destination of the named VM's in-flight
	// migration at time At: every migration transfer is canceled, the
	// destination state is discarded, and the VM keeps running at (or falls
	// back to) the source. A fault that finds no migration in flight is a
	// no-op (observers still see it fire).
	FaultDestCrash FaultKind = iota
	// FaultDeadline aborts the named VM's migration at time At if it is
	// still in flight — the operator-imposed "this migration took too long"
	// cutoff. Mechanically identical to FaultDestCrash, separately named so
	// traces distinguish crashes from policy aborts.
	FaultDeadline
	// FaultLinkDegrade scales the NIC (both directions) of node Node to
	// Factor times its configured bandwidth at time At, restoring it at
	// At+Duration. Factor 0 is a blackout (an epsilon floor keeps the
	// simulation well-formed).
	FaultLinkDegrade
	// FaultFabricDegrade scales the shared switch fabric the same way.
	FaultFabricDegrade
	// FaultPartition isolates node Node from the network for
	// [At, At+Duration): both NIC directions black out AND the node counts
	// as unreachable to the shared-volume attachment manager, so leases held
	// there stop renewing — which is what forces the lease protocol to
	// fence. Factor and VM are ignored.
	FaultPartition
)

func (k FaultKind) String() string {
	switch k {
	case FaultDestCrash:
		return "dest-crash"
	case FaultDeadline:
		return "deadline-exceeded"
	case FaultLinkDegrade:
		return "link-degrade"
	case FaultFabricDegrade:
		return "fabric-degrade"
	case FaultPartition:
		return "partition"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultSpec schedules one fault. Which fields matter depends on Kind: VM for
// the migration-abort faults, Node/Factor/Duration for the degradations.
type FaultSpec struct {
	At       float64
	Kind     FaultKind
	VM       string
	Node     int
	Factor   float64
	Duration float64
}

// TrafficSpec declares one background cross-traffic source: from Start to
// Stop, back-to-back bursts flow from node Src to node Dst over the normal
// NIC/fabric path, optionally paced at Rate bytes/s, competing with every
// migration stream that shares those links.
type TrafficSpec struct {
	Src, Dst    int
	Start, Stop float64
	Rate        float64 // bytes/s per-flow pacing cap; 0 = uncapped
	Burst       float64 // bytes per transfer; 0 = the fabric default (16 MB)
}

// RetrySpec bounds re-admission of fault-aborted migrations (timed plans and
// campaigns alike); see sched.Retry. The zero value disables retries.
type RetrySpec = sched.Retry

// options collects the functional run options.
type options struct {
	scale       Scale
	nodes       int
	config      *cluster.Config
	cm1         *params.CM1
	horizon     float64
	observers   []trace.Observer
	sampleEvery float64
	seedCapture bool
	faults      []FaultSpec
	traffic     []TrafficSpec
	retry       RetrySpec
	threshold   *uint32
	preseed     bool
	parallel    bool
	workers     int
}

// Option configures a Scenario.
type Option func(*options)

// WithScale selects the run scale (default ScaleSmall): the testbed
// configuration (unless WithConfig overrides it) and the defaults used for
// nil workload parameters both come from it.
func WithScale(s Scale) Option { return func(o *options) { o.scale = s } }

// WithNodes fixes the number of compute nodes. Without it the scenario
// allocates one node past the highest node index any VM or migration uses.
func WithNodes(n int) Option { return func(o *options) { o.nodes = n } }

// WithConfig supplies a complete cluster configuration, overriding the
// testbed WithScale/WithNodes would build. This is the ablation hook:
// every manager tunable (cfg.Manager) is reachable through it.
// Nil workload parameters still resolve from WithScale — pass a matching
// scale (or explicit parameters) alongside a non-default configuration.
func WithConfig(cfg cluster.Config) Option { return func(o *options) { o.config = &cfg } }

// WithCM1 runs the CM1 BSP application across all declared VMs, one rank per
// VM in declaration order; p.Procs must equal the VM count. VMs' own
// Workload specs must be WorkloadNone in this mode.
func WithCM1(p params.CM1) Option { return func(o *options) { o.cm1 = &p } }

// WithHorizon bounds the run at the given virtual time in seconds (default
// 1e6). A scenario that still has pending simulation work at the horizon
// fails with a *sim.DeadlineError instead of being truncated silently.
func WithHorizon(t float64) Option { return func(o *options) { o.horizon = t } }

// WithObserver subscribes an observer to the run's trace bus (migration
// phases, pre-copy rounds, campaign admissions, degradation samples).
// Observers see events synchronously in virtual-time order.
func WithObserver(obs trace.Observer) Option {
	return func(o *options) { o.observers = append(o.observers, obs) }
}

// WithSampleInterval enables periodic degradation samples (trace.KindSample,
// one per VM every d seconds) while the migration plan is in flight. It only
// takes effect when an observer is subscribed.
func WithSampleInterval(d float64) Option { return func(o *options) { o.sampleEvery = d } }

// WithSeedCapture records a hex-float determinism capture of the run into
// Result.SeedCapture: every measured float64 is rendered with %x so the full
// mantissa is visible, which is what golden tests diff.
func WithSeedCapture() Option { return func(o *options) { o.seedCapture = true } }

// WithFaults schedules injected faults: destination crashes and migration
// deadlines that abort in-flight migrations, and link/fabric degradations
// that rescale capacities mid-run. Faults fire in declaration order at equal
// times. Fault times (and degradation windows) must fit inside the horizon.
func WithFaults(fs ...FaultSpec) Option {
	return func(o *options) { o.faults = append(o.faults, fs...) }
}

// WithBackgroundTraffic adds persistent cross-traffic generators that
// compete with migrations for NIC and fabric bandwidth, tagged "background"
// in traffic reports. Each window must fit inside the horizon so the run can
// drain.
func WithBackgroundTraffic(ts ...TrafficSpec) Option {
	return func(o *options) { o.traffic = append(o.traffic, ts...) }
}

// WithRetry gives fault-aborted migrations a retry budget: an aborted timed
// migration (or campaign job) backs off and re-runs until it completes or
// exhausts r.MaxAttempts. Without it every abort is terminal.
func WithRetry(r RetrySpec) Option { return func(o *options) { o.retry = r } }

// WithThreshold overrides the Algorithm 1 write-count cutoff for every
// push-based strategy in the run (the paper's threshold ablation): chunks
// written at least t times during migration stop being pushed and wait for
// the prioritized pull phase; t = 0 disables pushing outright (the whole
// remaining set — chunks modified before the request included — waits for
// the pull phase). Strategies that retune the cutoff online start from the
// override; it has no effect on strategies without a push phase.
func WithThreshold(t uint32) Option { return func(o *options) { o.threshold = &t } }

// WithPreseededImages marks the base image as already replicated on every
// compute node's local storage (a deployment with pre-staged images): VMs
// boot from their local replica, migrations preseed the destination replica
// too, and neither ever touches the shared repository. Besides modeling
// pre-staged deployments, preseeding is what makes migrations between
// disjoint node pairs fully independent — the condition the parallel
// scenario kernel (WithParallel) shards on.
func WithPreseededImages() Option { return func(o *options) { o.preseed = true } }

// WithParallel runs the scenario on the component-parallel simulation
// kernel: the planner partitions the declared VMs, migrations, traffic and
// faults into connected components of the fabric, each component runs as an
// independent sub-run on its own event heap and clock (the shards never
// synchronize), and the per-shard results are merged deterministically.
// workers bounds the shards executing concurrently; values <= 0 use
// GOMAXPROCS.
//
// Parallel execution is conservative: a scenario the planner cannot prove
// decomposable (campaigns or CM1 — their orchestration observes global
// state; shared-storage strategies; images not preseeded; a switch fabric
// that could saturate) falls back to the serial kernel, so WithParallel
// never changes which scenarios are runnable. Merged results agree with the
// serial kernel field by field (the differential equivalence suite pins
// this at 1e-6 relative tolerance; in practice per-VM measurements are
// bit-identical and only summed traffic counters differ by float
// association). Without WithParallel runs are serial and bit-for-bit
// reproducible, which is what the golden suite pins.
func WithParallel(workers int) Option {
	return func(o *options) {
		o.parallel = true
		o.workers = workers
	}
}

// Scenario is a declarative description of one simulated session. Build it
// with New, AddVM, MigrateAt and Campaign, then call Run.
type Scenario struct {
	opt        options
	vms        []VMSpec
	migrations []Migration
	campaigns  []CampaignSpec
}

// New returns an empty scenario with the given run options applied.
func New(opts ...Option) *Scenario {
	s := &Scenario{opt: options{horizon: 1e6}}
	for _, o := range opts {
		o(&s.opt)
	}
	return s
}

// AddVM declares a VM. Returns the scenario for chaining.
func (s *Scenario) AddVM(v VMSpec) *Scenario {
	s.vms = append(s.vms, v)
	return s
}

// MigrateAt adds a timed migration of the named VM to node dst at time at.
func (s *Scenario) MigrateAt(vm string, dst int, at float64) *Scenario {
	s.migrations = append(s.migrations, Migration{VM: vm, Dst: dst, At: at})
	return s
}

// Campaign adds an orchestrated batch of migrations admitted under pol,
// triggered at time at.
func (s *Scenario) Campaign(at float64, pol sched.Policy, steps ...Step) *Scenario {
	s.campaigns = append(s.campaigns, CampaignSpec{At: at, Policy: pol, Steps: steps})
	return s
}

// maxNodeIndex returns the highest node index the scenario references.
func (s *Scenario) maxNodeIndex() int {
	max := 0
	for _, v := range s.vms {
		if v.Node > max {
			max = v.Node
		}
	}
	for _, m := range s.migrations {
		if m.Dst > max {
			max = m.Dst
		}
	}
	for _, c := range s.campaigns {
		for _, st := range c.Steps {
			if st.Dst > max {
				max = st.Dst
			}
		}
	}
	for _, f := range s.opt.faults {
		if (f.Kind == FaultLinkDegrade || f.Kind == FaultPartition) && f.Node > max {
			max = f.Node
		}
	}
	for _, t := range s.opt.traffic {
		if t.Src > max {
			max = t.Src
		}
		if t.Dst > max {
			max = t.Dst
		}
	}
	return max
}

// resolve validates the scenario and returns the cluster configuration, the
// per-scale defaults, and the name→index map.
func (s *Scenario) resolve() (cluster.Config, Setup, map[string]int, error) {
	var zero cluster.Config
	byName := make(map[string]int, len(s.vms))
	if len(s.vms) == 0 {
		return zero, Setup{}, nil, invalidf("no VMs declared")
	}
	// Every float of the spec must be finite: NaN slips through the ordered
	// comparisons below and would only surface as a panic inside Run.
	if !finite(s.opt.horizon) || s.opt.horizon <= 0 {
		return zero, Setup{}, nil, invalidf("horizon %g is not a finite positive time", s.opt.horizon)
	}
	if !finite(s.opt.sampleEvery) {
		return zero, Setup{}, nil, invalidf("sample interval %g is not finite", s.opt.sampleEvery)
	}
	for i, v := range s.vms {
		if v.Name == "" {
			return zero, Setup{}, nil, invalidf("VM %d has no name", i)
		}
		if _, dup := byName[v.Name]; dup {
			return zero, Setup{}, nil, invalidf("duplicate VM name %q", v.Name)
		}
		if v.Node < 0 {
			return zero, Setup{}, nil, invalidf("VM %q on negative node %d", v.Name, v.Node)
		}
		if _, ok := strategy.Lookup(string(v.Approach)); !ok {
			return zero, Setup{}, nil, invalidf("VM %q uses unregistered strategy %q (registered: %s)",
				v.Name, v.Approach, strategy.Registered())
		}
		switch v.Workload.Kind {
		case WorkloadNone, WorkloadIOR, WorkloadAsyncWR, WorkloadRewrite:
		default:
			// Rejecting unknown kinds here keeps startWorkload panic-free: a
			// malformed request surfaces as a validation error, never a crash.
			return zero, Setup{}, nil, invalidf("VM %q has unknown workload kind %d", v.Name, int(v.Workload.Kind))
		}
		if s.opt.cm1 != nil && v.Workload.Kind != WorkloadNone {
			return zero, Setup{}, nil, invalidf("VM %q declares a workload but WithCM1 runs one rank per VM", v.Name)
		}
		byName[v.Name] = i
	}
	checkStep := func(where, vm string, dst int) error {
		if _, ok := byName[vm]; !ok {
			return invalidf("%s references unknown VM %q", where, vm)
		}
		if dst < 0 {
			return invalidf("%s of VM %q targets negative node %d", where, vm, dst)
		}
		return nil
	}
	// Trigger and fault times must lie inside the horizon: work scheduled
	// past it could never run, and a degradation that restores after the
	// horizon would leave the run undrainable.
	checkTime := func(what string, at float64) error {
		if !finite(at) {
			return invalidf("%s at non-finite time %g", what, at)
		}
		if at < 0 {
			return invalidf("%s at negative time %g", what, at)
		}
		if at > s.opt.horizon {
			return invalidf("%s at %g s is past the horizon (%g s)", what, at, s.opt.horizon)
		}
		return nil
	}
	for _, m := range s.migrations {
		if err := checkStep("migration", m.VM, m.Dst); err != nil {
			return zero, Setup{}, nil, err
		}
		if err := checkTime(fmt.Sprintf("migration of VM %q", m.VM), m.At); err != nil {
			return zero, Setup{}, nil, err
		}
	}
	for ci, c := range s.campaigns {
		if c.Policy == nil {
			return zero, Setup{}, nil, invalidf("campaign %d has no policy", ci)
		}
		if len(c.Steps) == 0 {
			return zero, Setup{}, nil, invalidf("campaign %d has no migrations", ci)
		}
		if err := checkTime(fmt.Sprintf("campaign %d", ci), c.At); err != nil {
			return zero, Setup{}, nil, err
		}
		for _, st := range c.Steps {
			if err := checkStep("campaign migration", st.VM, st.Dst); err != nil {
				return zero, Setup{}, nil, err
			}
		}
	}
	for fi, f := range s.opt.faults {
		if err := checkTime(fmt.Sprintf("fault %d (%s)", fi, f.Kind), f.At); err != nil {
			return zero, Setup{}, nil, err
		}
		switch f.Kind {
		case FaultDestCrash, FaultDeadline:
			if _, ok := byName[f.VM]; !ok {
				return zero, Setup{}, nil, invalidf("fault %d (%s) targets unknown VM %q", fi, f.Kind, f.VM)
			}
		case FaultLinkDegrade, FaultFabricDegrade:
			if f.Kind == FaultLinkDegrade && f.Node < 0 {
				return zero, Setup{}, nil, invalidf("fault %d (%s) targets negative node %d", fi, f.Kind, f.Node)
			}
			if !(f.Factor >= 0 && f.Factor <= 1) {
				return zero, Setup{}, nil, invalidf("fault %d (%s) factor %g outside [0,1]", fi, f.Kind, f.Factor)
			}
			if !(f.Duration > 0) {
				return zero, Setup{}, nil, invalidf("fault %d (%s) needs a positive duration", fi, f.Kind)
			}
			if err := checkTime(fmt.Sprintf("fault %d (%s) restore", fi, f.Kind), f.At+f.Duration); err != nil {
				return zero, Setup{}, nil, err
			}
		case FaultPartition:
			if f.Node < 0 {
				return zero, Setup{}, nil, invalidf("fault %d (%s) targets negative node %d", fi, f.Kind, f.Node)
			}
			if !(f.Duration > 0) {
				return zero, Setup{}, nil, invalidf("fault %d (%s) needs a positive duration", fi, f.Kind)
			}
			if err := checkTime(fmt.Sprintf("fault %d (%s) heal", fi, f.Kind), f.At+f.Duration); err != nil {
				return zero, Setup{}, nil, err
			}
		default:
			return zero, Setup{}, nil, invalidf("fault %d has unknown kind %d", fi, int(f.Kind))
		}
	}
	// Degradation and partition windows on the same link must not overlap:
	// each window's restore step sets the link back to full capacity, so an
	// inner window would silently cancel the tail of an outer one. Partition
	// and link-degrade faults share a node's NIC links, so windows of the
	// two kinds conflict with each other too.
	nicNode := func(f FaultSpec) (int, bool) {
		if f.Kind == FaultLinkDegrade || f.Kind == FaultPartition {
			return f.Node, true
		}
		return 0, false
	}
	for i, a := range s.opt.faults {
		an, aNIC := nicNode(a)
		if !aNIC && a.Kind != FaultFabricDegrade {
			continue
		}
		for j := i + 1; j < len(s.opt.faults); j++ {
			b := s.opt.faults[j]
			bn, bNIC := nicNode(b)
			sameLink := (aNIC && bNIC && an == bn) ||
				(a.Kind == FaultFabricDegrade && b.Kind == FaultFabricDegrade)
			if !sameLink {
				continue
			}
			if a.At < b.At+b.Duration && b.At < a.At+a.Duration {
				return zero, Setup{}, nil, invalidf(
					"faults %d and %d (%s) have overlapping windows on the same link", i, j, a.Kind)
			}
		}
	}
	for ti, tr := range s.opt.traffic {
		if tr.Src < 0 || tr.Dst < 0 {
			return zero, Setup{}, nil, invalidf("traffic %d uses negative node", ti)
		}
		if tr.Src == tr.Dst {
			return zero, Setup{}, nil, invalidf("traffic %d needs distinct nodes (got %d->%d)", ti, tr.Src, tr.Dst)
		}
		if tr.Rate < 0 || tr.Burst < 0 || !finite(tr.Rate) || !finite(tr.Burst) {
			return zero, Setup{}, nil, invalidf("traffic %d has negative rate or burst, or a non-finite one", ti)
		}
		if err := checkTime(fmt.Sprintf("traffic %d start", ti), tr.Start); err != nil {
			return zero, Setup{}, nil, err
		}
		if !(tr.Stop > tr.Start) {
			return zero, Setup{}, nil, invalidf("traffic %d window [%g,%g) is not a positive span", ti, tr.Start, tr.Stop)
		}
		if err := checkTime(fmt.Sprintf("traffic %d stop", ti), tr.Stop); err != nil {
			return zero, Setup{}, nil, err
		}
	}
	if r := s.opt.retry; r.MaxAttempts < 0 || r.Backoff < 0 || r.Factor < 0 || !finite(r.Backoff) || !finite(r.Factor) {
		return zero, Setup{}, nil, invalidf("retry spec has negative or non-finite fields")
	}
	if s.opt.cm1 != nil {
		if s.opt.cm1.GridX*s.opt.cm1.GridY != s.opt.cm1.Procs {
			return zero, Setup{}, nil, invalidf("CM1 grid %dx%d does not match %d ranks",
				s.opt.cm1.GridX, s.opt.cm1.GridY, s.opt.cm1.Procs)
		}
		if s.opt.cm1.Procs != len(s.vms) {
			return zero, Setup{}, nil, invalidf("CM1 declares %d ranks but the scenario has %d VMs",
				s.opt.cm1.Procs, len(s.vms))
		}
	}

	nodes := s.opt.nodes
	if nodes <= 0 {
		nodes = s.maxNodeIndex() + 1
	}
	set := NewSetup(s.opt.scale, nodes)
	cfg := set.Cluster
	if s.opt.config != nil {
		cfg = *s.opt.config
	}
	if s.opt.threshold != nil {
		cfg.Manager.Threshold = *s.opt.threshold
	}
	if s.opt.preseed {
		cfg.Manager.Preseeded = true
	}
	if top := s.maxNodeIndex(); top >= cfg.Nodes {
		return zero, Setup{}, nil, invalidf("node index %d out of range (testbed has %d nodes)", top, cfg.Nodes)
	}
	return cfg, set, byName, nil
}

// runner holds one VM's live workload instance for result collection.
type runner struct {
	kind WorkloadKind
	ior  *workload.IOR
	awr  *workload.AsyncWR
	rw   *workload.Rewriter
}

// session is one assembled, not-yet-drained simulation of a scenario: the
// testbed plus every handle result collection needs. The serial and sharded
// run paths share it — a sharded run is just one session per component.
type session struct {
	tb        *cluster.Testbed
	insts     []*cluster.Instance
	runners   []runner
	cm1       *workload.CM1
	campaigns []*metrics.Campaign
}

// interruptStride is how many events the engine fires between cancellation
// polls when RunContext installs one. Large enough that the atomic load in
// ctx.Err is invisible next to event dispatch, small enough that a cancel
// lands within microseconds of wall time.
const interruptStride = 1024

// Run assembles the testbed, executes the scenario until the simulation
// drains, and collects the Result. On a horizon overrun it returns the
// partial Result together with a *sim.DeadlineError; on a validation failure
// it returns a nil Result and an error wrapping ErrInvalidScenario; when a
// simulation process panics it returns a nil Result and the
// *sim.ProcPanicError.
func (s *Scenario) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// Validate resolves the scenario without running it, returning the same
// error Run would. A service front end uses it to reject a malformed spec at
// submission time instead of burning a worker slot on it.
func (s *Scenario) Validate() error {
	_, _, _, err := s.resolve()
	return err
}

// RunContext is Run with cooperative cancellation: when ctx is canceled (or
// its deadline passes) the engine stops between two events, every process
// is shut down, and the partial Result is returned together with a
// *CanceledError. A context that can never be canceled adds no overhead and
// runs bit-identically to Run.
func (s *Scenario) RunContext(ctx context.Context) (*Result, error) {
	cfg, set, byName, err := s.resolve()
	if err != nil {
		return nil, err
	}
	var check func() bool
	if ctx.Done() != nil {
		if ctx.Err() != nil {
			return nil, &CanceledError{Cause: context.Cause(ctx)}
		}
		check = func() bool { return ctx.Err() != nil }
	}
	if s.opt.parallel {
		if plan := s.planPartition(cfg); plan != nil {
			res, err := s.runSharded(cfg, plan, check)
			if errors.As(err, new(*sim.ProcPanicError)) {
				return nil, err
			}
			if errors.Is(err, sim.ErrInterrupted) {
				cerr := &CanceledError{Cause: context.Cause(ctx)}
				if res != nil {
					cerr.Clock = res.Clock
				}
				return res, cerr
			}
			return res, err
		}
	}
	ss := s.build(cfg, set, byName)
	if check != nil {
		ss.tb.Eng.SetInterrupt(interruptStride, check)
	}
	runErr := ss.tb.Eng.Drain(s.opt.horizon)
	ss.tb.Eng.Shutdown()
	if errors.As(runErr, new(*sim.ProcPanicError)) {
		// A process broke a model invariant: no state of this run can be
		// trusted, so there is no partial result.
		return nil, runErr
	}
	res := s.collect(ss.tb, ss.insts, ss.runners, ss.cm1, ss.campaigns)
	if runErr != nil {
		if errors.Is(runErr, sim.ErrInterrupted) {
			return res, &CanceledError{Clock: res.Clock, Cause: context.Cause(ctx)}
		}
		return res, runErr
	}
	// Silent split brain is a hard simulation error: any write the attachment
	// manager could not attribute to a valid lease corrupted the shared image.
	if err := ss.tb.Leases().Err(); err != nil {
		return res, err
	}
	for ci, c := range ss.campaigns {
		if c == nil {
			return res, fmt.Errorf("scenario: campaign %d (%s) did not complete", ci, s.campaigns[ci].Policy.Name())
		}
	}
	return res, nil
}

// build assembles the testbed and spawns every declared process (VM stacks,
// workloads, the migration plan, traffic, faults, the sampler) without
// advancing simulated time.
func (s *Scenario) build(cfg cluster.Config, set Setup, byName map[string]int) *session {
	tb := cluster.New(cfg)
	for _, o := range s.opt.observers {
		tb.Observe(o)
	}
	eng := tb.Eng

	var cm1 *workload.CM1
	if s.opt.cm1 != nil {
		cm1 = workload.NewCM1(*s.opt.cm1, tb.Cl)
	}

	insts := make([]*cluster.Instance, len(s.vms))
	runners := make([]runner, len(s.vms))
	launch := func(i int) {
		v := s.vms[i]
		insts[i] = tb.Launch(v.Name, v.Node, v.Approach)
		if v.Workload.Kind == WorkloadIOR {
			// IOR is a storage benchmark: it runs O_DIRECT in the guest.
			insts[i].Guest.Buffered = false
		}
	}
	if cm1 == nil {
		// Launch and workload interleave per VM, preserving the original
		// hand-wired spawn order of the experiment harness.
		for i := range s.vms {
			launch(i)
			s.startWorkload(tb, insts[i], &runners[i], s.vms[i], set)
		}
	} else {
		// CM1 ranks exchange halos with every peer, so all guests must
		// exist before any rank starts.
		for i := range s.vms {
			launch(i)
		}
		guests := make([]*guest.Guest, len(insts))
		for i, inst := range insts {
			guests[i] = inst.Guest
		}
		for i := range s.vms {
			i := i
			eng.Go(s.vms[i].Name+"/cm1", func(p *sim.Proc) {
				cm1.Rank(p, i, guests[i], guests)
			})
		}
	}

	for _, m := range s.migrations {
		m := m
		idx := byName[m.VM]
		eng.Go("middleware/"+m.VM, func(p *sim.Proc) {
			p.Sleep(m.At)
			s.migrateWithRetry(p, tb, insts[idx], m.Dst)
		})
	}
	campaigns := make([]*metrics.Campaign, len(s.campaigns))
	for ci, c := range s.campaigns {
		ci, c := ci, c
		reqs := make([]cluster.MigrationRequest, len(c.Steps))
		for k, st := range c.Steps {
			reqs[k] = cluster.MigrationRequest{Inst: insts[byName[st.VM]], DstIdx: st.Dst}
		}
		eng.Go("orchestrator", func(p *sim.Proc) {
			p.Sleep(c.At)
			campaigns[ci] = tb.MigrateAll(p, reqs, c.Policy, s.opt.retry)
		})
	}

	for _, tr := range s.opt.traffic {
		tb.Cl.StartCrossTraffic(fabric.CrossTraffic{
			Src: tr.Src, Dst: tr.Dst, Start: tr.Start, Stop: tr.Stop,
			Rate: tr.Rate, Burst: tr.Burst,
		})
	}
	s.armFaults(tb, insts, byName)

	if len(s.opt.observers) > 0 && s.opt.sampleEvery > 0 && s.planSize() > 0 {
		s.startSampler(tb, insts, byName)
	}
	return &session{tb: tb, insts: insts, runners: runners, cm1: cm1, campaigns: campaigns}
}

// migrateWithRetry runs one timed migration under the scenario's retry
// budget: a fault-aborted attempt backs off and re-runs until it completes
// or exhausts the budget, mirroring the campaign path's semantics.
func (s *Scenario) migrateWithRetry(p *sim.Proc, tb *cluster.Testbed, inst *cluster.Instance, dst int) {
	maxAttempts := s.opt.retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	backoff := s.opt.retry.Backoff
	bus := tb.Bus()
	for attempt := 1; ; attempt++ {
		if tb.MigrateInstance(p, inst, dst) == nil {
			return
		}
		if attempt >= maxAttempts {
			inst.Exhausted = true
			return
		}
		if bus.Active() {
			bus.Emit(trace.Event{Time: p.Now(), Kind: trace.KindMigrationRetried,
				VM: inst.Name, Round: attempt + 1})
		}
		if backoff > 0 {
			p.Sleep(backoff)
		}
		if s.opt.retry.Factor > 0 {
			backoff *= s.opt.retry.Factor
		}
	}
}

// armFaults installs the scenario's fault schedule: abort faults become
// engine timers calling the middleware's AbortMigration; degradations become
// capacity schedules with a restore step. Every firing is published as a
// trace.KindFaultInjected event before its effect.
func (s *Scenario) armFaults(tb *cluster.Testbed, insts []*cluster.Instance, byName map[string]int) {
	bus := tb.Bus()
	emit := func(f FaultSpec, value float64) {
		if bus.Active() {
			bus.Emit(trace.Event{Time: tb.Eng.Now(), Kind: trace.KindFaultInjected,
				VM: f.VM, Detail: f.Kind.String(), Value: value})
		}
	}
	for _, f := range s.opt.faults {
		f := f
		switch f.Kind {
		case FaultDestCrash, FaultDeadline:
			inst := insts[byName[f.VM]]
			tb.Eng.At(f.At, func() {
				emit(f, 0)
				tb.AbortMigration(inst, f.Kind.String())
			})
		case FaultLinkDegrade:
			tb.Eng.At(f.At, func() { emit(f, f.Factor) })
			tb.Cl.ApplySchedule([]fabric.CapacityStep{
				{At: f.At, Role: fabric.LinkNICIn, Node: f.Node, Factor: f.Factor},
				{At: f.At, Role: fabric.LinkNICOut, Node: f.Node, Factor: f.Factor},
				{At: f.At + f.Duration, Role: fabric.LinkNICIn, Node: f.Node, Factor: 1},
				{At: f.At + f.Duration, Role: fabric.LinkNICOut, Node: f.Node, Factor: 1},
			}, bus)
		case FaultFabricDegrade:
			tb.Eng.At(f.At, func() { emit(f, f.Factor) })
			tb.Cl.ApplySchedule([]fabric.CapacityStep{
				{At: f.At, Role: fabric.LinkFabric, Factor: f.Factor},
				{At: f.At + f.Duration, Role: fabric.LinkFabric, Factor: 1},
			}, bus)
		case FaultPartition:
			tb.Eng.At(f.At, func() { emit(f, float64(f.Node)) })
			tb.Cl.Partition(f.Node, f.At, f.Duration, bus)
		}
	}
}

// planSize returns the total number of planned migrations.
func (s *Scenario) planSize() int {
	n := len(s.migrations)
	for _, c := range s.campaigns {
		n += len(c.Steps)
	}
	return n
}

// startWorkload spawns the VM's workload process and records its handle.
func (s *Scenario) startWorkload(tb *cluster.Testbed, inst *cluster.Instance, r *runner, v VMSpec, set Setup) {
	r.kind = v.Workload.Kind
	switch v.Workload.Kind {
	case WorkloadNone:
	case WorkloadIOR:
		p := set.IOR
		if v.Workload.IOR != nil {
			p = *v.Workload.IOR
		}
		r.ior = workload.NewIOR(p)
		tb.Eng.Go(v.Name+"/ior", func(pr *sim.Proc) { r.ior.Run(pr, inst.Guest) })
	case WorkloadAsyncWR:
		p := set.AsyncWR
		if v.Workload.AsyncWR != nil {
			p = *v.Workload.AsyncWR
		}
		r.awr = workload.NewAsyncWR(p)
		r.awr.Deadline = v.Workload.Deadline
		tb.Eng.Go(v.Name+"/asyncwr", func(pr *sim.Proc) { r.awr.Run(pr, inst.Guest) })
	case WorkloadRewrite:
		p := params.DefaultRewrite()
		if v.Workload.Rewrite != nil {
			p = *v.Workload.Rewrite
		}
		r.rw = workload.NewRewriter(p)
		tb.Eng.Go(v.Name+"/rewrite", func(pr *sim.Proc) { r.rw.Run(pr, inst.Guest) })
	default:
		// Unreachable: resolve rejects unknown kinds before build runs. A new
		// WorkloadKind must be wired both there and here; leaving it a no-op
		// (no workload process) keeps a long-lived server crash-free even if
		// that wiring is missed.
	}
}

// startSampler emits periodic degradation samples (per-VM dirty cache bytes)
// until every planned migration has completed. byName is resolve()'s
// validated name→index map.
func (s *Scenario) startSampler(tb *cluster.Testbed, insts []*cluster.Instance, byName map[string]int) {
	planned := make([]*cluster.Instance, 0, s.planSize())
	seen := map[*cluster.Instance]bool{}
	mark := func(name string) {
		inst := insts[byName[name]]
		if !seen[inst] {
			seen[inst] = true
			planned = append(planned, inst)
		}
	}
	for _, m := range s.migrations {
		mark(m.VM)
	}
	for _, c := range s.campaigns {
		for _, st := range c.Steps {
			mark(st.VM)
		}
	}
	bus := tb.Bus()
	tb.Eng.Go("observer/sampler", func(p *sim.Proc) {
		for {
			done := true
			for _, inst := range planned {
				if !inst.Migrated {
					done = false
					break
				}
			}
			if done {
				return
			}
			for _, inst := range insts {
				bus.Emit(trace.Event{
					Time: p.Now(), Kind: trace.KindSample, VM: inst.Name,
					Detail: "dirty-bytes", Value: float64(inst.Guest.Cache.DirtyBytes()),
				})
			}
			p.Sleep(s.opt.sampleEvery)
		}
	})
}

package hybridmig

import (
	"github.com/hybridmig/hybridmig/internal/scenario"
)

// Scenario is a declarative description of one simulated session: VMs, a
// migration plan, and run options. Build it with NewScenario, AddVM,
// MigrateAt and Campaign, then call Run. A Scenario is single-use state
// about one description; Run may be called repeatedly and each call executes
// a fresh, deterministic simulation of it.
type Scenario = scenario.Scenario

// VMSpec declares one VM: where it starts, which storage transfer approach
// backs it, and what workload it runs.
type VMSpec = scenario.VMSpec

// WorkloadSpec declares a VM's workload; build one with IOR, AsyncWR,
// Rewrite, or leave it zero for an idle guest.
type WorkloadSpec = scenario.WorkloadSpec

// WorkloadKind names a workload family in results.
type WorkloadKind = scenario.WorkloadKind

// The declarative workload families.
const (
	WorkloadNone    = scenario.WorkloadNone
	WorkloadIOR     = scenario.WorkloadIOR
	WorkloadAsyncWR = scenario.WorkloadAsyncWR
	WorkloadRewrite = scenario.WorkloadRewrite
)

// Step is one migration of a campaign: the named VM moves to node Dst when
// the campaign's policy admits it.
type Step = scenario.Step

// FaultSpec schedules one injected fault: a destination crash or migration
// deadline (abort faults, addressed by VM), or a link/fabric degradation
// (addressed by Node/Factor/Duration). See the FaultKind constants.
type FaultSpec = scenario.FaultSpec

// FaultKind names an injectable fault family.
type FaultKind = scenario.FaultKind

// The injectable fault kinds.
const (
	// FaultDestCrash crashes the destination of the named VM's in-flight
	// migration: transfers are canceled, destination state is discarded,
	// and the VM keeps running at (or falls back to) the source.
	FaultDestCrash = scenario.FaultDestCrash
	// FaultDeadline aborts the named VM's migration if still in flight at
	// the fault time — the operator's "took too long" cutoff.
	FaultDeadline = scenario.FaultDeadline
	// FaultLinkDegrade scales a node's NIC bandwidth by Factor for
	// Duration seconds (Factor 0 is a blackout).
	FaultLinkDegrade = scenario.FaultLinkDegrade
	// FaultFabricDegrade scales the shared switch fabric the same way.
	FaultFabricDegrade = scenario.FaultFabricDegrade
	// FaultPartition cuts a node off the network for Duration seconds: its
	// NIC blacks out in both directions and the node counts as unreachable
	// to the shared-volume attachment manager, so leases it holds expire and
	// are fenced once silent past TTL+grace.
	FaultPartition = scenario.FaultPartition
)

// TrafficSpec declares one background cross-traffic source competing with
// migrations for NIC and fabric bandwidth between Start and Stop.
type TrafficSpec = scenario.TrafficSpec

// RetrySpec bounds re-admission of fault-aborted migrations: MaxAttempts
// per migration, Backoff seconds before a retry, scaled by Factor each
// further attempt. The zero value disables retries.
type RetrySpec = scenario.RetrySpec

// Result is what Scenario.Run returns: per-VM migration/downtime stats and
// workload counters, campaign aggregates, and per-tag network traffic.
type Result = scenario.Result

// VMResult is one VM's outcome within a Result.
type VMResult = scenario.VMResult

// WorkloadResult carries one VM workload's counters.
type WorkloadResult = scenario.WorkloadResult

// Option configures a Scenario at construction.
type Option = scenario.Option

// NewScenario returns an empty scenario with the given run options applied.
func NewScenario(opts ...Option) *Scenario { return scenario.New(opts...) }

// IOR declares the IOR benchmark for a VM; p == nil uses the run scale's
// defaults. IOR guests run O_DIRECT, as in the paper.
func IOR(p *IORParams) WorkloadSpec { return scenario.IOR(p) }

// AsyncWR declares the AsyncWR benchmark; p == nil uses the run scale's
// defaults. deadline > 0 stops the workload at that absolute virtual time
// (fixed-horizon degradation measurements compare counters at one instant).
func AsyncWR(p *AsyncWRParams, deadline float64) WorkloadSpec { return scenario.AsyncWR(p, deadline) }

// Rewrite declares the hot/cold rewrite workload; p == nil uses
// DefaultRewriteParams.
func Rewrite(p *RewriteParams) WorkloadSpec { return scenario.Rewrite(p) }

// WithScale selects the run scale (default ScaleSmall): the testbed
// configuration (unless WithConfig overrides it) and the defaults used for
// nil workload parameters both come from it.
func WithScale(s Scale) Option { return scenario.WithScale(s) }

// WithNodes fixes the number of compute nodes. Without it the scenario
// allocates one node past the highest node index it references.
func WithNodes(n int) Option { return scenario.WithNodes(n) }

// WithConfig supplies a complete cluster configuration (see DefaultConfig,
// SmallConfig, SetupFor), overriding the testbed WithScale and WithNodes
// would build. Nil workload parameters still resolve from WithScale — pass
// a matching scale (or explicit parameters) alongside a non-default
// configuration.
func WithConfig(cfg Config) Option { return scenario.WithConfig(cfg) }

// WithCM1 runs the CM1 BSP application across all declared VMs, one rank
// per VM in declaration order; p.Procs must equal the VM count.
func WithCM1(p CM1Params) Option { return scenario.WithCM1(p) }

// WithHorizon bounds the run at the given virtual time in seconds (default
// 1e6). A scenario with pending work at the horizon fails with a
// *DeadlineError instead of being truncated silently.
func WithHorizon(t float64) Option { return scenario.WithHorizon(t) }

// WithObserver subscribes an observer to the run's trace bus.
func WithObserver(o Observer) Option { return scenario.WithObserver(o) }

// WithSampleInterval enables periodic degradation samples (KindSample, one
// per VM every d seconds) while migrations are in flight; it only takes
// effect together with WithObserver.
func WithSampleInterval(d float64) Option { return scenario.WithSampleInterval(d) }

// WithSeedCapture records a hex-float determinism capture of the run into
// Result.SeedCapture, rendering every measured float64 with %x so golden
// tests can diff runs bit for bit.
func WithSeedCapture() Option { return scenario.WithSeedCapture() }

// WithFaults schedules injected faults (destination crashes, migration
// deadlines, link/fabric degradations). Fault times and degradation windows
// must fit inside the horizon.
func WithFaults(fs ...FaultSpec) Option { return scenario.WithFaults(fs...) }

// WithBackgroundTraffic adds persistent cross-tenant traffic generators
// that compete with migrations for bandwidth, reported under the
// "background" traffic tag.
func WithBackgroundTraffic(ts ...TrafficSpec) Option { return scenario.WithBackgroundTraffic(ts...) }

// WithRetry gives fault-aborted migrations a bounded retry budget with
// backoff; without it every abort is terminal. Applies to timed migrations
// and campaigns alike.
func WithRetry(r RetrySpec) Option { return scenario.WithRetry(r) }

// WithThreshold overrides the Algorithm 1 write-count cutoff for every
// push-based strategy in the run (the paper's threshold ablation): chunks
// written at least t times during migration wait for the prioritized pull
// phase instead of being pushed, and t = 0 disables pushing outright. It
// also seeds the adaptive strategy's starting point and has no effect on
// strategies without a push phase.
func WithThreshold(t uint32) Option { return scenario.WithThreshold(t) }

// WithPreseededImages models a deployment with pre-staged images: the base
// image is already replicated on every compute node's local storage, so
// boots and migrations never touch the shared repository. Preseeding also
// makes migrations between disjoint node pairs fully independent — the
// condition WithParallel shards on.
func WithPreseededImages() Option { return scenario.WithPreseededImages() }

// WithParallel runs the scenario on the component-parallel simulation
// kernel: independent fabric components simulate concurrently on their own
// event heaps and the results merge deterministically, equivalent to the
// serial kernel field by field. Scenarios the planner cannot prove
// decomposable (campaigns, CM1, shared-storage strategies, non-preseeded
// images, a saturable fabric, a fault or traffic stream on nodes without
// VMs, a single component) fall back to the serial kernel. workers <= 0
// uses GOMAXPROCS. Without this option runs are serial and bit-for-bit
// reproducible.
func WithParallel(workers int) Option { return scenario.WithParallel(workers) }

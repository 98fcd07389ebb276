// Package hybridmig is a simulation-backed reproduction of "A Hybrid Local
// Storage Transfer Scheme for Live Migration of I/O Intensive Workloads"
// (Nicolae and Cappello, HPDC 2012).
//
// It provides a deterministic discrete-event model of an IaaS datacenter —
// compute nodes with NICs and local disks behind a shared switch fabric, a
// striped repository for base VM images, a parallel file system, guest I/O
// stacks and a QEMU-style pre-copy hypervisor — and, on top of it, the
// paper's contribution: a migration manager implementing the hybrid active
// push / prioritized prefetch scheme for live storage migration, together
// with the four baselines the paper compares against (mirror, postcopy,
// precopy block migration, and shared-PFS storage).
//
// The public API is declarative: describe a Scenario — VMs (name, node,
// approach, workload), a migration plan (timed per-VM moves or an
// orchestrated campaign under an admission policy), and run options — then
// call Run, which returns a typed Result and a real error. There is no
// process wiring and no engine access. A scenario whose work cannot finish
// by the horizon fails with a *DeadlineError, and a panic inside a
// simulation process comes back as a *ProcPanicError instead of crashing
// the program; a panic in a plain event callback still propagates.
//
// A minimal session:
//
//	s := hybridmig.NewScenario(hybridmig.WithNodes(4)).
//		AddVM(hybridmig.VMSpec{
//			Name:     "vm0",
//			Node:     0,
//			Approach: hybridmig.OurApproach,
//			Workload: hybridmig.IOR(nil), // scale-default IOR benchmark
//		}).
//		MigrateAt("vm0", 1, 3) // to node 1, three seconds in
//	res, err := s.Run()
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("migrated in %.2f s\n", res.VM("vm0").MigrationTime)
//
// Observers subscribe through WithObserver and receive the run's trace —
// migration phase transitions, hypervisor pre-copy rounds, campaign
// admissions, degradation samples — as typed events instead of scraping
// logs. The simulation layers publish; observing never perturbs a run.
//
// The implementation lives in internal/ packages; see DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-vs-measured results.
package hybridmig

import (
	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/core"
	"github.com/hybridmig/hybridmig/internal/lease"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/scenario"
	"github.com/hybridmig/hybridmig/internal/sched"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/strategy"
	"github.com/hybridmig/hybridmig/internal/strategy/adaptive"
)

// Approach names a registered storage transfer strategy.
type Approach = cluster.Approach

// The five approaches of the paper's Table 1, plus the adaptive-threshold
// hybrid this reproduction adds on top (registered through the strategy
// registry; see Strategies).
const (
	OurApproach          = cluster.OurApproach
	Mirror               = cluster.Mirror
	Postcopy             = cluster.Postcopy
	Precopy              = cluster.Precopy
	PVFSShared           = cluster.PVFSShared
	Adaptive    Approach = adaptive.Name
	// MultiAttach dual-attaches the shared volume during switchover under
	// lease-based fencing, modeling RWX multi-attach block migration.
	MultiAttach = cluster.MultiAttach
)

// Approaches lists the paper's five compared approaches in Table 1 order.
// The full registered strategy set — including the adaptive hybrid — is
// Strategies().
func Approaches() []Approach { return cluster.Approaches() }

// Strategies returns the name of every registered storage transfer strategy
// in registration order: the five Table 1 approaches first, then every
// strategy registered on top (the adaptive hybrid ships with this package).
func Strategies() []Approach {
	names := strategy.Names()
	out := make([]Approach, len(names))
	for i, n := range names {
		out[i] = Approach(n)
	}
	return out
}

// StrategyDescription returns the registered summary line for a strategy
// name, reporting ok=false for unregistered names.
func StrategyDescription(a Approach) (desc string, ok bool) {
	return strategy.Describe(string(a))
}

// Config assembles every knob of a simulated testbed. Pass one through
// WithConfig to control the cluster beyond the per-scale defaults.
type Config = cluster.Config

// DefaultConfig returns the paper's testbed configuration (Section 5.1) for
// the given node count: 117.5 MB/s NICs, 55 MB/s disks, 8 GB/s fabric, 4 GB
// images and RAM, 256 KB chunks.
func DefaultConfig(nodes int) Config { return cluster.DefaultConfig(nodes) }

// SmallConfig returns a 1/16-scale testbed that preserves the paper's
// ratios, for fast experiments and tests.
func SmallConfig(nodes int) Config { return cluster.SmallConfig(nodes) }

// Scale selects the run size for scenarios and experiment defaults.
type Scale = scenario.Scale

// Experiment scales.
const (
	ScaleSmall = scenario.ScaleSmall
	ScalePaper = scenario.ScalePaper
)

// Setup bundles the per-scale defaults a run builds on: cluster
// configuration plus the paper's workload parameters and timing constants.
type Setup = scenario.Setup

// SetupFor returns the default Setup for a scale and node count.
func SetupFor(s Scale, nodes int) Setup { return scenario.NewSetup(s, nodes) }

// DeadlineError is returned (wrapped) by Scenario.Run when the simulation
// still has pending work at the horizon; detect it with errors.As.
type DeadlineError = sim.DeadlineError

// ProcPanicError is returned by Scenario.Run and RunContext, with a nil
// Result, when a simulation process panicked (a broken model invariant).
// It names the process and the virtual time and carries the panic value and
// the process's stack; detect it with errors.As.
type ProcPanicError = sim.ProcPanicError

// CanceledError is returned by Scenario.RunContext when its context was
// canceled before the simulation drained; detect it with errors.As. Unwrap
// exposes the context's cancellation cause.
type CanceledError = scenario.CanceledError

// ErrInvalidScenario is wrapped by every scenario validation failure;
// detect it with errors.Is.
var ErrInvalidScenario = scenario.ErrInvalidScenario

// LeaseOptions are the shared-volume attachment-manager knobs (Config.Lease):
// lease TTL, post-expiry grace period, reconciler interval, and the NoFencing
// split-brain demonstrator switch. The zero value uses the defaults (3/2/1 s,
// fencing on).
type LeaseOptions = lease.Options

// ErrCorruption is wrapped by Scenario.Run when the write-epoch detector
// observed a shared-volume write outside a valid lease (split brain); detect
// it with errors.Is. It can only occur with LeaseOptions.NoFencing set.
var ErrCorruption = lease.ErrCorruption

// Campaign orchestration: batches of simultaneous migrations executed under
// an admission policy (see internal/sched and DESIGN.md §9).
type (
	// Policy decides when each migration of a campaign runs.
	Policy = sched.Policy
	// Campaign is the aggregate result of one orchestrated batch of
	// migrations: makespan, total downtime, peak concurrency, traffic.
	// It marshals to JSON with derived aggregates included.
	Campaign = metrics.Campaign
	// JobStat is the per-migration record of a campaign.
	JobStat = metrics.JobStat
	// TagBytes attributes campaign traffic to one flow tag.
	TagBytes = metrics.TagBytes
)

// The four campaign policies.
func AllAtOnce() Policy       { return sched.AllAtOnce{} }
func Serial() Policy          { return sched.Serial{} }
func BatchedK(k int) Policy   { return sched.BatchedK{K: k} }
func CycleAware(k int) Policy { return sched.CycleAware{K: k} }

// Policies returns the standard policy set for a campaign of n migrations.
func Policies(n int) []Policy { return sched.Policies(n) }

// Workload parameter bundles (paper defaults). Pass pointers to these — or
// nil for the run scale's defaults — when declaring workloads.
type (
	// IORParams configures the IOR HPC I/O benchmark (Section 5.3).
	IORParams = params.IOR
	// AsyncWRParams configures the compute + asynchronous-write benchmark.
	AsyncWRParams = params.AsyncWR
	// CM1Params configures the CM1 BSP stencil application (Section 5.5).
	CM1Params = params.CM1
	// RewriteParams configures the hot/cold rewrite workload.
	RewriteParams = params.Rewrite
)

// Paper-default workload parameters.
func DefaultIORParams() IORParams         { return params.DefaultIOR() }
func DefaultAsyncWRParams() AsyncWRParams { return params.DefaultAsyncWR() }
func DefaultCM1Params() CM1Params         { return params.DefaultCM1() }
func DefaultRewriteParams() RewriteParams { return params.DefaultRewrite() }

// CoreStats exposes the migration manager's per-VM transfer statistics
// (pushed/pulled/prefetched bytes and chunks, dedup hits, ...).
type CoreStats = core.Stats

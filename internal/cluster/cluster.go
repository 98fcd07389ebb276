// Package cluster is the cloud middleware of the reproduction: it assembles
// the testbed (compute nodes, repository, parallel file system), deploys VM
// instances provisioned through the storage-transfer strategy registry
// (internal/strategy — the five compared approaches of Table 1 plus any
// strategy registered on top), and orchestrates live migrations end to end —
// the storage-side MIGRATION REQUEST followed by the hypervisor's memory
// migration, exactly as Section 4.3 prescribes, with every per-approach
// decision behind the strategy interface.
package cluster

import (
	"errors"
	"fmt"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/core"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/hv"
	"github.com/hybridmig/hybridmig/internal/lease"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/pfs"
	"github.com/hybridmig/hybridmig/internal/sched"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/strategy"
	"github.com/hybridmig/hybridmig/internal/trace"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// Approach names a registered storage-transfer strategy (see
// internal/strategy). The five Table 1 approaches have named constants; any
// further registered strategy is addressed by its registry name.
type Approach string

// The five approaches of the paper's evaluation.
const (
	OurApproach Approach = "our-approach"
	Mirror      Approach = "mirror"
	Postcopy    Approach = "postcopy"
	Precopy     Approach = "precopy"
	PVFSShared  Approach = "pvfs-shared"
)

// MultiAttach is the shared-volume strategy that dual-attaches the volume
// during switchover under lease fencing (not part of the paper's Table 1).
const MultiAttach Approach = "multiattach"

// Approaches lists the paper's five compared approaches in the Table 1
// presentation order. The full registered set — which may be larger — is
// strategy.Names().
func Approaches() []Approach {
	return []Approach{OurApproach, Mirror, Postcopy, Precopy, PVFSShared}
}

// Description returns the registered Table 1 summary line for the approach;
// an unregistered approach reports the actual registered strategy names
// instead of a silent "unknown".
func (a Approach) Description() string {
	if d, ok := strategy.Describe(string(a)); ok {
		return d
	}
	return fmt.Sprintf("unregistered strategy %q (registered: %s)", string(a), strategy.Registered())
}

// Config assembles every knob of a testbed.
type Config struct {
	Nodes      int // compute nodes (repository/PFS servers ride on them, as in the paper)
	Testbed    params.Testbed
	HV         params.Hypervisor
	Guest      params.Guest
	Manager    params.Manager
	Repo       params.Repository
	Experiment params.Experiment
	// BootRead is how much base-image content each instance reads at launch
	// (OS boot + warm-up), which seeds the hot-base-content hints.
	BootRead int64
	// Lease configures the shared-volume attachment manager (TTL, grace
	// period, reconcile interval, and the NoFencing demonstrator switch);
	// the zero value selects the defaults.
	Lease lease.Options
}

// DefaultConfig returns the paper's testbed at the given node count.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:      nodes,
		Testbed:    params.DefaultTestbed(),
		HV:         params.DefaultHypervisor(),
		Guest:      params.DefaultGuest(),
		Manager:    params.DefaultManager(),
		Repo:       params.DefaultRepository(),
		Experiment: params.DefaultExperiment(),
		BootRead:   192 * params.MB,
	}
}

// SmallConfig returns a miniature testbed (256 MB images, 512 MB RAM) that
// preserves all the ratios of DefaultConfig. Tests and smoke runs use it to
// keep simulations fast while exercising the same code paths.
func SmallConfig(nodes int) Config {
	cfg := DefaultConfig(nodes)
	cfg.Testbed.ImageSize = 256 * params.MB
	cfg.Testbed.RAM = 512 * params.MB
	cfg.HV.BootedFootprint = 64 * params.MB
	cfg.Guest.DirtyLimit = 48 * params.MB
	cfg.Guest.CacheRegion = 160 * params.MB
	cfg.BootRead = 24 * params.MB
	return cfg
}

// Testbed is a fully assembled simulated datacenter.
type Testbed struct {
	Eng  *sim.Engine
	Cl   *fabric.Cluster
	Repo *pfs.FS
	PFS  *pfs.FS
	Cfg  Config

	baseRepo  *pfs.File
	basePFS   *pfs.File
	geo       chunk.Geometry
	instances []*Instance
	bus       *trace.Bus
	leases    *lease.Manager
}

// Observe subscribes an observer to the testbed's trace bus: migration
// requests and completions (this layer), storage phase transitions
// (internal/core), pre-copy rounds (internal/hv), and campaign admissions
// (internal/sched). Subscribe before Launch so managers created later see
// the bus; with no subscribers the bus is inert and runs are bit-identical
// to unobserved ones.
func (tb *Testbed) Observe(o trace.Observer) { tb.bus.Subscribe(o) }

// Bus returns the testbed's trace bus (the scenario layer samples onto it).
func (tb *Testbed) Bus() *trace.Bus { return tb.bus }

// New builds the testbed: the repository (BlobSeer) and the PFS (PVFS), two
// instances of one striped service, both span all compute nodes with the
// same stripes, as in Section 5.2, and the 4 GB base image is installed in
// both.
func New(cfg Config) *Testbed {
	eng := sim.New()
	cl := fabric.NewCluster(eng, cfg.Nodes, cfg.Testbed)
	repo := pfs.NewFS(cl, cl.Nodes, cfg.Repo, flow.TagRepo)
	fs := pfs.NewFS(cl, cl.Nodes, cfg.Repo, flow.TagPFS)
	tb := &Testbed{
		Eng:  eng,
		Cl:   cl,
		Repo: repo,
		PFS:  fs,
		Cfg:  cfg,
		geo:  chunk.NewGeometry(cfg.Testbed.ImageSize, cfg.Testbed.ChunkSize),
		bus:  &trace.Bus{},
	}
	if cfg.Testbed.ChunkSize%cfg.Repo.StripeSize != 0 && cfg.Repo.StripeSize%cfg.Testbed.ChunkSize != 0 {
		panic("cluster: chunk size and repository stripe size must nest")
	}
	tb.baseRepo = repo.Create("base.img", cfg.Testbed.ImageSize)
	tb.basePFS = fs.Create("base.img", cfg.Testbed.ImageSize)
	// The attachment manager's reachability probe is the fabric's partition
	// state: a node inside a partition window cannot renew its leases.
	tb.leases = lease.NewManager(eng, tb.bus, cfg.Lease, func(node int) bool {
		return !cl.PartitionedNow(node)
	})
	return tb
}

// Leases returns the testbed's shared-volume attachment manager.
func (tb *Testbed) Leases() *lease.Manager { return tb.leases }

// Geometry returns the image chunking.
func (tb *Testbed) Geometry() chunk.Geometry { return tb.geo }

// Instance is one deployed VM with its full stack.
type Instance struct {
	Name     string
	Approach Approach
	VM       *vm.VM
	Guest    *guest.Guest

	// Strategy is the per-VM storage-transfer strategy state backing the
	// instance — one uniform handle instead of per-approach union fields.
	Strategy strategy.Instance

	// Migration measurements (filled by MigrateInstance).
	Migrated      bool
	MigrationTime float64
	HVResult      hv.Result
	CoreStats     core.Stats
	Done          sim.Gate

	// Fault/retry accounting, cumulative across attempts.
	Attempts     int     // migration attempts, aborted ones included
	Aborts       int     // attempts torn down by injected faults
	Fenced       int     // aborts that were fencing decisions (subset of Aborts)
	AbortedBytes float64 // wire bytes wasted by aborted attempts
	Exhausted    bool    // a retry budget ran out without completing

	abort *hv.Abort // in-flight attempt's cancellation handle, nil when idle
}

// strategyEnv assembles the provisioning environment strategies build
// against.
func (tb *Testbed) strategyEnv() strategy.Env {
	return strategy.Env{
		Eng:     tb.Eng,
		Cl:      tb.Cl,
		Geo:     tb.geo,
		Base:    tb.baseRepo,
		BasePFS: tb.basePFS,
		PFS:     tb.PFS,
		Bus:     tb.bus,
		HV:      tb.Cfg.HV,
		Manager: tb.Cfg.Manager,
		Leases:  tb.leases,
	}
}

// Launch deploys an instance of the given approach on node nodeIdx,
// provisioning its storage through the strategy registry. The returned
// instance's guest is ready; its boot read runs as a process and completes
// within the warm-up period.
func (tb *Testbed) Launch(name string, nodeIdx int, approach Approach) *Instance {
	def, ok := strategy.Lookup(string(approach))
	if !ok {
		panic(fmt.Sprintf("cluster: unregistered strategy %q (registered: %s)",
			approach, strategy.Registered()))
	}
	node := tb.Cl.Nodes[nodeIdx]
	cfg := tb.Cfg
	mem := vm.NewMemory(cfg.Testbed.RAM, cfg.HV.MemPageSize)
	mem.Alloc(cfg.HV.BootedFootprint, true) // kernel + userland
	v := vm.New(tb.Eng, name, node, mem)

	inst := &Instance{Name: name, Approach: approach, VM: v}
	inst.Strategy = def.Provision(tb.strategyEnv(), name, node)
	raw := &guest.RawDisk{Cl: tb.Cl, Node: func() *fabric.Node { return v.Node }, Geo: tb.geo}
	gopts := guest.Options{
		HostCache: inst.Strategy.HostCache(),
		Buffered:  true,
		Inner:     raw,
		MakeImage: inst.Strategy.MakeImage,
	}
	inst.Guest = guest.New(tb.Eng, v, cfg.Guest, gopts)
	inst.Strategy.AttachGuest(inst.Guest)

	if cfg.BootRead > 0 {
		tb.Eng.Go(name+"/boot", func(p *sim.Proc) {
			osOff, osEnd := inst.Guest.FS.OSArea()
			span := osEnd - osOff
			boot := cfg.BootRead
			if boot > span {
				boot = span
			}
			inst.Guest.FS.ReadRaw(p, osOff, boot)
		})
	}
	tb.instances = append(tb.instances, inst)
	return inst
}

// Instances returns all deployed instances.
func (tb *Testbed) Instances() []*Instance { return tb.instances }

// ErrMigrationAborted is returned by MigrateInstance when an injected fault
// tore the attempt down. The instance keeps running at the source and may be
// retried with a fresh MigrateInstance call.
var ErrMigrationAborted = errors.New("cluster: migration aborted by injected fault")

// ErrMigrationFenced is returned when the attempt was aborted by a fencing
// decision of the attachment manager (a lease revoked or refused during the
// shared-volume switchover window). It wraps ErrMigrationAborted, so retry
// machinery that matches on the general abort keeps working.
var ErrMigrationFenced = fmt.Errorf("%w: fencing won", ErrMigrationAborted)

// MigrateInstance live-migrates inst to the node at dstIdx, blocking until
// the migration fully completes per the strategy's own definition of
// migration time (Section 5.2): control transfer for precopy, mirror and
// pvfs-shared; source release for the push/pull schemes. When a fault aborts
// the attempt (see AbortMigration) it returns ErrMigrationAborted with the
// VM live at the source and the wasted traffic accumulated on the instance.
func (tb *Testbed) MigrateInstance(p *sim.Proc, inst *Instance, dstIdx int) error {
	dst := tb.Cl.Nodes[dstIdx]
	src := inst.VM.Node
	start := tb.Eng.Now()
	inst.Attempts++
	inst.abort = hv.NewAbort(tb.Cl.Net)
	defer func() { inst.abort = nil }()
	if tb.bus.Active() {
		tb.bus.Emit(trace.Event{Time: start, Kind: trace.KindMigrationRequested,
			VM: inst.Name, Detail: string(inst.Approach), Value: float64(dst.ID)})
	}
	// Host-side migration work steals guest CPU for as long as the VM's
	// host is involved in transfers (Section 2's "impact on application
	// performance" is precisely this resource consumption).
	inst.VM.SetCPUSteal(tb.Cfg.HV.CPUSteal)
	defer inst.VM.SetCPUSteal(0)
	out := inst.Strategy.Migrate(&strategy.Migration{
		P: p, VM: inst.VM, Src: src, Dst: dst, Start: start, Abort: inst.abort,
	})
	inst.HVResult = out.HV
	if out.Aborted {
		inst.Aborts++
		wasted := out.HV.MemoryBytes + out.HV.BlockBytes + out.StorageWasted
		inst.AbortedBytes += wasted
		detail := string(inst.Approach)
		if out.Fenced {
			inst.Fenced++
			detail = "fenced"
		}
		if tb.bus.Active() {
			tb.bus.Emit(trace.Event{Time: tb.Eng.Now(), Kind: trace.KindMigrationAborted,
				VM: inst.Name, Detail: detail, Value: wasted})
		}
		if out.Fenced {
			return ErrMigrationFenced
		}
		return ErrMigrationAborted
	}
	inst.CoreStats = inst.Strategy.Stats()
	inst.MigrationTime = out.MigrationTime
	inst.Migrated = true
	if tb.bus.Active() {
		tb.bus.Emit(trace.Event{Time: tb.Eng.Now(), Kind: trace.KindMigrationCompleted,
			VM: inst.Name, Detail: string(inst.Approach), Value: inst.MigrationTime})
	}
	inst.Done.Open(tb.Eng)
	return nil
}

// AbortMigration injects a fault into inst's in-flight migration: the
// strategy tears its storage state down (destination state released, I/O
// control kept at or returned to the source) and the hypervisor transfer
// unwinds. Reports whether a migration was actually in flight to abort.
//
// A strategy may veto the fault by returning false from Abort — for
// manager-backed strategies the storage migration is the point of no return:
// once the manager has fully completed (source released), aborting only the
// final memory copy would strand storage at the destination while the VM
// restarts at the source, so a fault landing in that tail is "too late" and
// the migration is allowed to finish.
func (tb *Testbed) AbortMigration(inst *Instance, reason string) bool {
	if inst.abort == nil || inst.abort.Aborted() {
		return false // no attempt in flight (or this one is already dying)
	}
	if !inst.Strategy.Abort(reason) {
		return false // storage not abortable: idle or already complete
	}
	inst.abort.Trigger()
	return true
}

// MigrationRequest names one migration of a campaign: an instance and the
// index of its destination node.
type MigrationRequest struct {
	Inst   *Instance
	DstIdx int
}

// lowIOFraction is the dirty-cache cutoff for the cycle-aware policy: a VM
// whose guest cache holds less than this fraction of its dirty limit is in a
// low-I/O window (writers idle or draining, not pushing against throttle).
const lowIOFraction = 8

// LowIO reports whether the instance's workload is currently in a low-I/O
// window, judged by how much dirty data sits in its guest cache. Workload
// cycles (IOR's write/read phases, AsyncWR's compute/write alternation) show
// up directly in this signal.
func (tb *Testbed) LowIO(inst *Instance) bool {
	return inst.Guest.Cache.DirtyBytes() <= tb.Cfg.Guest.DirtyLimit/lowIOFraction
}

// MigrateAll executes a campaign of migrations under the policy, blocking
// until every request has completed, and returns the campaign's aggregate
// stats. Requests are admitted in slice order; identical inputs yield
// identical campaigns (the simulation stays deterministic). Fault-aborted
// migrations back off and rejoin the admission queue until they complete or
// exhaust retry.MaxAttempts (the zero Retry allows one attempt). Instances
// whose budget runs out are marked Exhausted and left running at their
// source.
func (tb *Testbed) MigrateAll(p *sim.Proc, reqs []MigrationRequest, pol sched.Policy, retry sched.Retry) *metrics.Campaign {
	jobs := make([]sched.Job, len(reqs))
	for i, r := range reqs {
		r := r
		jobs[i] = sched.Job{
			Name:     r.Inst.Name,
			Run:      func(jp *sim.Proc) error { return tb.MigrateInstance(jp, r.Inst, r.DstIdx) },
			LowIO:    func() bool { return tb.LowIO(r.Inst) },
			Downtime: func() float64 { return r.Inst.HVResult.Downtime },
			Wasted:   func() float64 { return r.Inst.AbortedBytes },
			Fenced:   func() int { return r.Inst.Fenced },
		}
	}
	o := sched.New(tb.Eng, tb.Cl.Net)
	o.Trace = tb.bus
	sb0 := tb.leases.SplitBrainWindows()
	c := o.Run(p, jobs, pol, retry)
	c.SplitBrainWindows = tb.leases.SplitBrainWindows() - sb0
	for i, st := range c.JobStats {
		if st.Exhausted {
			reqs[i].Inst.Exhausted = true
		}
	}
	return c
}

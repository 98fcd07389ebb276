// Package strategy makes the paper's storage-transfer strategies first-class:
// each of the compared approaches (Table 1) is one registered Strategy with a
// uniform lifecycle, and the cloud middleware (package cluster) drives every
// migration through the interface instead of switching on approach names.
//
// Lifecycle of one strategy instance:
//
//  1. Provision (Definition.Provision): called once at VM launch, builds the
//     per-VM storage state. MakeImage wires the strategy's disk image into
//     the guest I/O stack; AttachGuest hands it the assembled guest for
//     cache-warming hooks.
//  2. Migrate: one full migration attempt — the storage-side MIGRATION
//     REQUEST (when the strategy has one), the hypervisor memory migration,
//     and the wait for completion per the approach's own Section 5.2
//     definition of migration time (control transfer for precopy, mirror and
//     pvfs-shared; the later of source release and control transfer for the
//     push/pull schemes).
//  3. Abort: the storage-side gate of a fault injection. It reports whether
//     the storage state can be torn down; wasted-byte accounting for the
//     attempt rides back on the Outcome.
//  4. Stats: the storage manager's transfer statistics (the zero value for
//     strategies without a manager).
//
// Strategies self-register by name in a process-wide registry; the scenario
// layer validates approaches against it, the middleware provisions from it,
// and the CLIs enumerate it, so adding a strategy requires zero edits to
// cluster or scenario code. The adaptive-threshold hybrid (package
// strategy/adaptive) ships exclusively through this registration path.
package strategy

import (
	"fmt"
	"sort"
	"strings"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/core"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/hv"
	"github.com/hybridmig/hybridmig/internal/lease"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/pfs"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/trace"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// Env is the testbed context a strategy provisions against: the simulation
// engine and fabric, the image geometry, the two base-image homes (striped
// repository and parallel FS), and the configuration knobs strategies read.
type Env struct {
	Eng     *sim.Engine
	Cl      *fabric.Cluster
	Geo     chunk.Geometry
	Base    *pfs.File // base image in the striped repository
	BasePFS *pfs.File // base image on the parallel file system
	PFS     *pfs.FS   // parallel file system (snapshot creation)
	Bus     *trace.Bus
	HV      params.Hypervisor
	Manager params.Manager
	// Leases is the testbed's shared-volume attachment manager; strategies
	// whose images live on shared storage route attach/detach and switchover
	// authority through it.
	Leases *lease.Manager
}

// Migration is the middleware-provided context of one migration attempt.
type Migration struct {
	P   *sim.Proc
	VM  *vm.VM
	Src *fabric.Node
	Dst *fabric.Node
	// Start is the virtual time the middleware accepted the request; every
	// approach's migration time is measured from it.
	Start sim.Time
	// Abort is the attempt's fault-injection handle, threaded into the
	// hypervisor transfer.
	Abort *hv.Abort
}

// Outcome is what one migration attempt produced.
type Outcome struct {
	HV hv.Result
	// MigrationTime is the attempt's duration per the strategy's own
	// Section 5.2 definition (meaningless when Aborted).
	MigrationTime float64
	// Aborted marks an attempt torn down by an injected fault; the VM is
	// live at (or back on) the source.
	Aborted bool
	// Fenced marks an aborted attempt whose abort was a fencing decision:
	// the attachment manager revoked a lease (or refused to grant one)
	// rather than risk two writers on a shared volume. Always implies
	// Aborted.
	Fenced bool
	// StorageWasted is the storage wire traffic an aborted attempt put on
	// the network (the hypervisor's own wasted bytes are in HV).
	StorageWasted float64
}

// Instance is the per-VM state of one strategy.
type Instance interface {
	// MakeImage builds the strategy's disk image over the guest's backing
	// store (the host-cached local file); called once during guest assembly.
	MakeImage(backing vm.DiskImage) vm.DiskImage
	// HostCache reports whether the guest may run its host page cache
	// (shared-storage migration mandates cache=none).
	HostCache() bool
	// AttachGuest hands the instance its assembled guest, after MakeImage.
	AttachGuest(g *guest.Guest)
	// Migrate runs one full migration attempt toward m.Dst and blocks until
	// it completes or aborts.
	Migrate(m *Migration) Outcome
	// Abort tears down the storage side of the in-flight attempt and
	// reports whether it was abortable; returning false vetoes the fault
	// (e.g. the storage migration is already past its point of no return).
	Abort(reason string) bool
	// Stats returns the storage manager's statistics for the current or
	// last attempt (the zero value for strategies without a manager).
	Stats() core.Stats
}

// Traits are static coupling properties of a strategy that the parallel
// scenario planner consults; they describe which shared substrates a
// strategy's instances touch, never how they behave.
type Traits struct {
	// SharedStorage marks strategies whose images live on (or are backed
	// by) the cluster-wide parallel file system at all times — precopy's
	// COW-over-PFS base and pvfs-shared. Every such VM couples to every
	// other through the PFS servers, so scenarios containing one cannot be
	// partitioned. Manager-backed strategies (zero value) touch only the
	// striped repository, and not even that when images are preseeded.
	SharedStorage bool
}

// Definition is one registered strategy.
type Definition struct {
	// Name keys the registry and is the approach string scenarios use.
	Name string
	// Description is the Table 1 summary line.
	Description string
	// Traits are the strategy's static coupling properties (the zero value
	// fits every manager-backed strategy).
	Traits Traits
	// Provision builds the per-VM instance at launch time. It runs before
	// the guest I/O stack is assembled and must not advance simulated time.
	Provision func(env Env, vmName string, node *fabric.Node) Instance
}

// registry is the process-wide strategy registry. Registration happens in
// package init functions (this package's five built-ins, then any importer
// such as strategy/adaptive), so the order is deterministic for a given
// binary and never mutates after init.
var registry struct {
	names  []string
	byName map[string]Definition
}

// Register adds a strategy to the registry. It panics on an empty name, a
// missing Provision, or a duplicate registration — all programmer errors.
func Register(d Definition) {
	if d.Name == "" {
		panic("strategy: Register with empty name")
	}
	if d.Provision == nil {
		panic(fmt.Sprintf("strategy: %q has no Provision", d.Name))
	}
	if registry.byName == nil {
		registry.byName = make(map[string]Definition)
	}
	if _, dup := registry.byName[d.Name]; dup {
		panic(fmt.Sprintf("strategy: %q registered twice", d.Name))
	}
	registry.byName[d.Name] = d
	registry.names = append(registry.names, d.Name)
}

// Lookup returns the definition registered under name.
func Lookup(name string) (Definition, bool) {
	d, ok := registry.byName[name]
	return d, ok
}

// Names lists every registered strategy in registration order: the five
// Table 1 approaches first, then any strategies linked in on top.
func Names() []string {
	out := make([]string, len(registry.names))
	copy(out, registry.names)
	return out
}

// Describe returns the registered description for name.
func Describe(name string) (string, bool) {
	d, ok := registry.byName[name]
	return d.Description, ok
}

// Registered formats the registry's names for error messages, sorted so the
// text is stable regardless of what extra strategies a binary links in.
func Registered() string {
	names := Names()
	sort.Strings(names)
	return strings.Join(names, ", ")
}

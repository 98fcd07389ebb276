package strategy

import (
	"github.com/hybridmig/hybridmig/internal/core"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/hv"
	"github.com/hybridmig/hybridmig/internal/lease"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// sharedDescription is the Table 1 summary line of the pvfs-shared baseline.
const sharedDescription = "Does not apply (All writes go to PVFS)"

// leaseGuard adapts the attachment manager to the shared image's WriteGuard:
// every write to the volume is authorized against the current lease state.
type leaseGuard struct {
	m   *lease.Manager
	vol string
}

func (g leaseGuard) AuthorizeWrite(node int) bool { return g.m.AuthorizeWrite(g.vol, node) }

// provisionShared builds the pvfs-shared baseline instance. The snapshot
// file is created at provision time (before the guest stack is assembled),
// matching the original launch order. The volume is registered with the
// attachment manager in degenerate single-lease mode: one exclusive
// attach+write lease that moves atomically at switchover.
func provisionShared(env Env, vmName string, node *fabric.Node) Instance {
	snap := env.PFS.Create(vmName+".qcow2", env.Geo.ImageSize)
	s := &shared{
		env: env,
		vol: vmName,
		img: hv.NewSharedImage(env.Cl, node, env.Geo, env.BasePFS, snap),
	}
	att, err := env.Leases.Acquire(vmName, node.ID)
	if err != nil {
		// Provision happens before any fault window opens; an acquire
		// failure here is a programmer error, not a scenario outcome.
		panic("strategy: pvfs-shared provision could not acquire lease: " + err.Error())
	}
	s.att = att
	s.img.Guard = leaseGuard{m: env.Leases, vol: vmName}
	return s
}

// shared is the pvfs-shared baseline (Section 5.2.3): base image and COW
// snapshot both live on the parallel file system, so migration moves memory
// only — and every guest I/O crosses the network. The volume is held under a
// single exclusive lease; migration monitors it for the span of the attempt
// and hands it over at switchover.
type shared struct {
	env Env
	vol string
	img *hv.SharedImage

	att    *lease.Attachment // exclusive volume lease
	fenced bool              // current attempt died to a fencing decision
	moved  bool              // lease handed to the destination (past the point of no return)
	abortH *hv.Abort         // current attempt's abort handle (fence wiring)
}

var _ Instance = (*shared)(nil)

// MakeImage implements Instance: the image lives on the PFS; the local
// backing store is unused.
func (s *shared) MakeImage(vm.DiskImage) vm.DiskImage { return s.img }

// HostCache implements Instance: shared-storage migration mandates
// cache=none.
func (s *shared) HostCache() bool          { return false }
func (s *shared) AttachGuest(*guest.Guest) {}

// Migrate moves memory only; the shared data never moves. The attempt runs
// inside a lease-monitoring window: if the reconciler fences the source's
// lease mid-attempt (the holder became unreachable past TTL+grace), the
// attempt aborts as a fencing outcome. All lease operations are pure state
// on the simulation clock, so fault-free runs are bit-identical to the
// pre-lease baseline.
func (s *shared) Migrate(m *Migration) Outcome {
	lm := s.env.Leases
	s.fenced, s.moved = false, false
	s.abortH = m.Abort
	if s.att.Fenced {
		// A previous attempt was fenced; re-acquire once the source is
		// reachable again. While it is not, the attempt dies on the spot
		// — fenced, zero bytes moved.
		att, err := lm.Acquire(s.vol, m.Src.ID)
		if err != nil {
			return Outcome{Aborted: true, Fenced: true}
		}
		s.att = att
	}
	lm.BeginWindow(s.vol, s.onFence, nil)
	defer lm.EndWindow(s.vol)
	res := hv.Migrate(m.P, s.env.Cl, m.VM, m.Dst, s.env.HV, nil, nil, s.env.Bus, m.Abort)
	if res.Aborted {
		return Outcome{HV: res, Aborted: true, Fenced: s.fenced}
	}
	lm.MoveAttachment(s.att, m.Dst.ID)
	s.moved = true
	s.img.MoveTo(m.Dst)
	return Outcome{HV: res, MigrationTime: res.ControlTransfer - m.Start}
}

// onFence aborts the in-flight attempt when the reconciler fences the
// volume's lease: without a valid lease the migration must not complete.
func (s *shared) onFence(*lease.Attachment) {
	s.fenced = true
	if s.abortH != nil {
		s.abortH.Trigger()
	}
}

// Abort implements Instance, lease-aware: the attempt is abortable while the
// volume lease is still held at the source; once the handover moved it to
// the destination the migration is past its point of no return and the
// fault is vetoed.
func (s *shared) Abort(reason string) bool { return !s.moved }

func (s *shared) Stats() core.Stats { return core.Stats{} }

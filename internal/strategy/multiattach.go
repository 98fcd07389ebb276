package strategy

import (
	"github.com/hybridmig/hybridmig/internal/core"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/hv"
	"github.com/hybridmig/hybridmig/internal/lease"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// multiattachDescription summarizes the RWX multi-attach strategy.
const multiattachDescription = "Shared volume dual-attached during switchover under lease fencing (RWX)"

// recoveryWriteBytes is the journal-recovery burst a failover writer replays
// when fencing is disabled and the manager activates the destination while
// the source may still be writing (the split-brain demonstrator).
const recoveryWriteBytes = 4 << 20

func init() {
	Register(Definition{
		Name:        "multiattach",
		Description: multiattachDescription,
		Traits:      Traits{SharedStorage: true},
		Provision:   provisionMultiattach,
	})
}

// provisionMultiattach builds the multi-attach instance: a shared PFS volume
// held under the attachment manager, write-guarded from the first byte.
func provisionMultiattach(env Env, vmName string, node *fabric.Node) Instance {
	snap := env.PFS.Create(vmName+".qcow2", env.Geo.ImageSize)
	s := &multiattach{
		env: env,
		vol: vmName,
		img: hv.NewSharedImage(env.Cl, node, env.Geo, env.BasePFS, snap),
	}
	att, err := env.Leases.Acquire(vmName, node.ID)
	if err != nil {
		panic("strategy: multiattach provision could not acquire lease: " + err.Error())
	}
	s.src = att
	s.img.Guard = leaseGuard{m: env.Leases, vol: vmName}
	return s
}

// multiattach models shared-storage live migration over an RWX multi-attach
// volume (the KubeVirt block-volume migration shape): the destination
// acquires a second lease on the volume before the memory migration starts,
// source and destination are *both* attached for the span of the switchover,
// write authority transfers to the destination at control transfer, and the
// source lease is released afterwards. The window is safe only because the
// attachment manager monitors it: a holder partitioned past TTL+grace is
// fenced by the reconciler (the straggler detach), which aborts the attempt
// as a first-class Fenced outcome instead of risking two writers.
type multiattach struct {
	env Env
	vol string
	img *hv.SharedImage

	src *lease.Attachment // lease at the VM's current home
	dst *lease.Attachment // second lease during the dual-attach window

	fenced      bool // current attempt died to a fencing decision
	transferred bool // authority moved to the destination (point of no return)
	abortH      *hv.Abort
}

var _ Instance = (*multiattach)(nil)

// MakeImage implements Instance: the image lives on the PFS.
func (s *multiattach) MakeImage(vm.DiskImage) vm.DiskImage { return s.img }

// HostCache implements Instance: shared-storage migration mandates
// cache=none.
func (s *multiattach) HostCache() bool          { return false }
func (s *multiattach) AttachGuest(*guest.Guest) {}

// Migrate runs one attempt through the dual-attachment protocol:
//
//	acquire dest lease → both attached → memory migration → transfer write
//	authority → release source lease.
//
// A fencing decision against either side of the open window (or a refused
// destination lease) aborts the attempt as a Fenced outcome with the VM
// still live at the source.
func (s *multiattach) Migrate(m *Migration) Outcome {
	lm := s.env.Leases
	s.fenced, s.transferred = false, false
	s.abortH = m.Abort
	// A previous attempt may have been fenced at the source; the retry
	// re-acquires once the source is reachable again.
	if s.src.Fenced {
		att, err := lm.Acquire(s.vol, m.Src.ID)
		if err != nil {
			return Outcome{Aborted: true, Fenced: true}
		}
		s.src = att
	}
	// Lease negotiation with the attachment manager is a control round
	// trip; an unreachable destination refuses the dual-attach, which is
	// equivalent to being fenced before the window opens.
	s.env.Cl.ControlRTT(m.P)
	datt, err := lm.Acquire(s.vol, m.Dst.ID)
	if err != nil {
		return Outcome{Aborted: true, Fenced: true}
	}
	s.dst = datt
	lm.BeginWindow(s.vol, s.onFence, s.onFailover)
	res := hv.Migrate(m.P, s.env.Cl, m.VM, m.Dst, s.env.HV, nil, nil, s.env.Bus, m.Abort)
	if res.Aborted {
		s.closeWindow(false)
		return Outcome{HV: res, Aborted: true, Fenced: s.fenced}
	}
	if !lm.TransferAuthority(s.dst) {
		// The destination lease died at the very instant of switchover;
		// treat it as a fence of the attempt. The hypervisor has already
		// resumed the guest at the destination, so move it back — the
		// source still holds the volume.
		s.fenced = true
		m.VM.MoveTo(m.Src)
		s.closeWindow(false)
		return Outcome{HV: res, Aborted: true, Fenced: true}
	}
	s.transferred = true
	s.img.MoveTo(m.Dst)
	s.closeWindow(true)
	return Outcome{HV: res, MigrationTime: res.ControlTransfer - m.Start}
}

// closeWindow ends the monitoring window and resolves the dual attachment:
// on success the source lease is released and the destination becomes the
// new home lease; on an aborted attempt the destination lease is released
// (unless the reconciler already fenced it — the straggler detach).
func (s *multiattach) closeWindow(success bool) {
	lm := s.env.Leases
	lm.EndWindow(s.vol)
	if success {
		lm.Release(s.src)
		s.src, s.dst = s.dst, nil
		return
	}
	if s.dst != nil && !s.dst.Fenced {
		lm.Release(s.dst)
	}
	s.dst = nil
}

// onFence aborts the in-flight attempt: the reconciler fenced one side of
// the dual-attach window, and completing the switchover without both leases
// valid risks split brain.
func (s *multiattach) onFence(*lease.Attachment) {
	s.fenced = true
	if s.abortH != nil {
		s.abortH.Trigger()
	}
}

// onFailover is the NoFencing path: the manager presumed the silent holder
// dead and handed write authority to the surviving attachment. The survivor
// "restarts" the VM from the shared disk — modeled as a journal-recovery
// write burst from its node while the presumed-dead holder may still be
// writing. The write-epoch detector turns the overlap into a hard error.
func (s *multiattach) onFailover(loser, winner *lease.Attachment) {
	node := s.env.Cl.Nodes[winner.Node]
	s.env.Eng.Go(s.vol+"/failover-recovery", func(p *sim.Proc) {
		s.img.WriteFrom(p, node, 0, recoveryWriteBytes)
	})
}

// Abort implements Instance, lease-aware: abortable until write authority
// has transferred to the destination; past that point the source lease is
// already doomed and the migration must complete.
func (s *multiattach) Abort(reason string) bool { return !s.transferred }

func (s *multiattach) Stats() core.Stats { return core.Stats{} }

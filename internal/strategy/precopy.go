package strategy

import (
	"github.com/hybridmig/hybridmig/internal/core"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/hv"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// precopyDescription is the Table 1 summary line of the precopy baseline.
const precopyDescription = "Push to dest before transfer of control"

// provisionPrecopy builds the precopy baseline instance.
func provisionPrecopy(env Env, vmName string, node *fabric.Node) Instance {
	return &precopy{env: env, node: node}
}

// precopy is the QEMU-style incremental block migration baseline (Section
// 5.2.2 case 1): a qcow2 COW snapshot on local disk over a PFS base image,
// dragged through the hypervisor's iterative rounds as a BlockMigrator.
type precopy struct {
	env  Env
	node *fabric.Node
	img  *hv.COWImage
	gst  *guest.Guest
}

var _ Instance = (*precopy)(nil)

func (s *precopy) MakeImage(backing vm.DiskImage) vm.DiskImage {
	s.img = hv.NewCOWImage(s.env.Cl, s.node, s.env.Geo, s.env.BasePFS, backing)
	return s.img
}

func (s *precopy) HostCache() bool            { return true }
func (s *precopy) AttachGuest(g *guest.Guest) { s.gst = g }

// Migrate runs memory and block migration together; migration time is the
// control transfer (by then every allocated block has been re-created at the
// destination).
func (s *precopy) Migrate(m *Migration) Outcome {
	res := hv.Migrate(m.P, s.env.Cl, m.VM, m.Dst, s.env.HV, s.img, nil, s.env.Bus, m.Abort)
	if res.Aborted {
		return Outcome{HV: res, Aborted: true}
	}
	s.img.MoveTo(m.Dst)
	s.gst.Cache.Invalidate()
	s.img.ForEachLocalRange(s.gst.Cache.MarkCachedRange)
	return Outcome{HV: res, MigrationTime: res.ControlTransfer - m.Start}
}

// Abort implements Instance: block migration has no storage point of no
// return before control transfer — the snapshot never leaves the source —
// so the fault always proceeds to the hypervisor abort.
func (s *precopy) Abort(reason string) bool { return true }

func (s *precopy) Stats() core.Stats { return core.Stats{} }

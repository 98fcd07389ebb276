package strategy

import (
	"github.com/hybridmig/hybridmig/internal/core"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/hv"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// The Table 1 summary lines of the manager-backed approaches.
const (
	hybridDescription   = "As presented in Section 4.3 (hybrid push/prioritized prefetch)"
	mirrorDescription   = "Sync writes both at src and dest"
	postcopyDescription = "Pull from src after transfer of control"
)

func init() {
	// The five Table 1 strategies register here, in the paper's presentation
	// order, so Names() leads with them deterministically.
	Register(Definition{
		Name:        "our-approach",
		Description: hybridDescription,
		Provision:   provisionManaged(core.ModeHybrid),
	})
	Register(Definition{
		Name:        "mirror",
		Description: mirrorDescription,
		Provision:   provisionManaged(core.ModeMirror),
	})
	Register(Definition{
		Name:        "postcopy",
		Description: postcopyDescription,
		Provision:   provisionManaged(core.ModePostcopy),
	})
	Register(Definition{
		Name:        "precopy",
		Description: precopyDescription,
		Traits:      Traits{SharedStorage: true}, // COW snapshot over the PFS base
		Provision:   provisionPrecopy,
	})
	Register(Definition{
		Name:        "pvfs-shared",
		Description: sharedDescription,
		Traits:      Traits{SharedStorage: true}, // image lives on the PFS
		Provision:   provisionShared,
	})
}

// provisionManaged builds the Provision hook for one manager mode.
func provisionManaged(mode core.Mode) func(Env, string, *fabric.Node) Instance {
	return func(env Env, vmName string, node *fabric.Node) Instance {
		return NewManaged(env, mode, vmName, node)
	}
}

// Managed is the strategy family built on the migration manager (package
// core): the paper's hybrid scheme plus the mirror and postcopy baselines,
// selected by mode. It is exported so strategies layering a control loop on
// the managed base (e.g. the adaptive-threshold hybrid) can reuse the whole
// lifecycle through the public registration path.
type Managed struct {
	env  Env
	mode core.Mode
	name string
	node *fabric.Node
	img  *core.Image
	gst  *guest.Guest

	// OnMigrationStart, when set, runs right after the storage manager
	// accepts the MIGRATION REQUEST of an attempt — the hook where derived
	// strategies start per-attempt control loops (threshold adaptation).
	OnMigrationStart func(img *core.Image, m *Migration)
}

var _ Instance = (*Managed)(nil)

// NewManaged returns a manager-backed instance for the given mode.
func NewManaged(env Env, mode core.Mode, vmName string, node *fabric.Node) *Managed {
	return &Managed{env: env, mode: mode, name: vmName, node: node}
}

// Image returns the underlying migration-manager image (nil before the
// guest stack is assembled).
func (s *Managed) Image() *core.Image { return s.img }

// MakeImage implements Instance: the manager view over the guest's cache.
func (s *Managed) MakeImage(backing vm.DiskImage) vm.DiskImage {
	s.img = core.NewImage(s.env.Eng, s.env.Cl, s.node, s.env.Geo, s.env.Base,
		backing, core.Options{Manager: s.env.Manager, Mode: s.mode, Trace: s.env.Bus}, s.name)
	return s.img
}

// HostCache implements Instance: manager-backed guests run host-cached.
func (s *Managed) HostCache() bool { return true }

// AttachGuest implements Instance: chunks installed at the destination
// transit its host RAM and are therefore cache-warm there.
func (s *Managed) AttachGuest(g *guest.Guest) {
	s.gst = g
	s.img.OnDestInstall = g.Cache.MarkCachedRange
}

// Migrate implements Instance: MIGRATION REQUEST, hypervisor memory
// migration (mirror gates stop-and-copy on full synchronization), then the
// wait for the manager to release the source.
func (s *Managed) Migrate(m *Migration) Outcome {
	s.img.MigrationRequest(m.Dst)
	if s.OnMigrationStart != nil {
		s.OnMigrationStart(s.img, m)
	}
	var stopGate *sim.Gate
	if s.mode == core.ModeMirror {
		stopGate = s.img.BulkDoneGate()
	}
	res := hv.Migrate(m.P, s.env.Cl, m.VM, m.Dst, s.env.HV, nil, stopGate, s.env.Bus, m.Abort)
	if res.Aborted {
		// Fault before control transfer: the VM never left the source and
		// the manager (aborted by the same fault) already rolled its
		// storage state back.
		return Outcome{HV: res, Aborted: true, StorageWasted: s.img.Stats().WireBytes()}
	}
	// The destination host cache starts cold except for the content the
	// migration itself moved through its RAM.
	s.gst.Cache.Invalidate()
	s.img.ForEachLocalRange(s.gst.Cache.MarkCachedRange)
	s.img.WaitComplete(m.P)
	if !s.img.Complete() {
		// Fault during the pull phase: the destination crashed after going
		// live. Storage control fell back to the intact source replica; the
		// VM restarts there from its source-side state.
		m.VM.MoveTo(m.Src)
		s.gst.Cache.Invalidate()
		s.img.ForEachLocalRange(s.gst.Cache.MarkCachedRange)
		return Outcome{HV: res, Aborted: true, StorageWasted: s.img.Stats().WireBytes()}
	}
	st := s.img.Stats()
	out := Outcome{HV: res}
	if s.mode == core.ModeMirror {
		out.MigrationTime = res.ControlTransfer - m.Start
	} else {
		// Until every resource is available at the destination: the later
		// of source release (storage) and control transfer (memory), per
		// the Section 2 definition.
		end := st.ReleasedAt
		if res.ControlTransfer > end {
			end = res.ControlTransfer
		}
		out.MigrationTime = end - m.Start
	}
	return out
}

// Abort implements Instance: the manager decides abortability (a storage
// migration that already fully completed is past the point of no return).
func (s *Managed) Abort(reason string) bool { return s.img.Abort(reason) }

// Stats implements Instance.
func (s *Managed) Stats() core.Stats { return s.img.Stats() }

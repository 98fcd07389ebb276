// Package lease is the attachment manager for shared-storage volumes: the
// component that makes the RWX dual-attachment window of shared-storage live
// migration safe. Real multi-attach block volumes (KubeVirt RWX migration,
// CSI attachment managers) allow source and destination hypervisors to hold
// the same volume simultaneously during the switchover — a state that is
// only survivable because an external manager hands out time-limited leases,
// a reconciler watches holder liveness, and a holder that stays silent past
// its grace period is *fenced*: its attachment revoked and its I/O blocked
// before a second writer is activated. Without fencing, a network partition
// turns the same window into split brain and silent disk corruption.
//
// This package models that protocol on the simulation clock:
//
//   - Manager hands out per-volume Attachments (at most two — the
//     dual-attachment window), tracks a write-authority epoch per volume,
//     and transfers authority exactly once per switchover.
//   - While a migration window is open (BeginWindow/EndWindow), a reconciler
//     timer ticks every Options.Interval: reachable holders renew, holders
//     unreachable past Options.TTL expire, and holders expired past
//     Options.Grace are fenced (or, with Options.NoFencing, trigger the
//     unsafe failover the fencing exists to prevent).
//   - AuthorizeWrite is the write-epoch corruption detector: the shared
//     image path asks it before every write, fenced holders are blocked, and
//     a write from a node without current write authority is recorded as a
//     violation — silent split-brain becomes a hard simulation error
//     (Manager.Err).
//
// Monitoring is window-scoped: the reconciler timer only runs between
// BeginWindow and EndWindow, so a drained scenario never holds a live timer
// and lease bookkeeping outside migration windows is pure state (no
// simulated time passes), which keeps lease-managed strategies bit-identical
// to their pre-lease behavior in fault-free runs.
package lease

import (
	"errors"
	"fmt"

	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// Options are the attachment-manager knobs.
type Options struct {
	// TTL is how long a lease stays valid without a successful renewal, in
	// seconds (default 3).
	TTL float64
	// Grace is the extra window after expiry before the reconciler fences
	// the holder, in seconds (default 2).
	Grace float64
	// Interval is the reconciler tick period, in seconds (default 1).
	Interval float64
	// NoFencing disables fencing decisions: an expired holder is presumed
	// dead after the grace period and, if the volume is dual-attached, write
	// authority is handed to the surviving attachment while the silent
	// holder may still be writing. This is the split-brain demonstrator; the
	// corruption detector turns it into Manager.Err.
	NoFencing bool
}

// withDefaults fills unset fields with the production-shaped defaults.
func (o Options) withDefaults() Options {
	if o.TTL <= 0 {
		o.TTL = 3
	}
	if o.Grace <= 0 {
		o.Grace = 2
	}
	if o.Interval <= 0 {
		o.Interval = 1
	}
	return o
}

// ErrCorruption is wrapped by Manager.Err when the write-epoch detector
// observed at least one write outside a valid lease.
var ErrCorruption = errors.New("lease: write outside a valid lease (split brain)")

// Attachment is one node's lease on one volume.
type Attachment struct {
	vol  *volume
	Node int
	// Epoch is the write-authority epoch at which this attachment last held
	// (or was granted) authority.
	Epoch uint64
	// Authority marks the attachment currently allowed to write the volume.
	Authority bool
	// Fenced marks an attachment revoked by the reconciler; its writes are
	// blocked and it never regains authority.
	Fenced bool

	lastSeen   float64 // reconciler tick at which the holder was last reachable
	expired    bool    // lease lapsed past TTL (expiry event emitted)
	failedOver bool    // NoFencing failover already taken against this holder
	released   bool
}

// volume is the manager's per-volume state.
type volume struct {
	name  string
	atts  []*Attachment
	epoch uint64 // write-authority epoch, bumped on every authority change

	monitoring bool
	timer      sim.Timer
	timerArmed bool
	onFence    func(*Attachment)
	onFailover func(loser, winner *Attachment)
}

// holder returns the current write-authority attachment, or nil.
func (v *volume) holder() *Attachment {
	for _, a := range v.atts {
		if a.Authority {
			return a
		}
	}
	return nil
}

// Manager is the attachment manager: one per testbed, shared by every
// lease-managed volume.
type Manager struct {
	eng       *sim.Engine
	bus       *trace.Bus
	opt       Options
	reachable func(node int) bool

	vols map[string]*volume

	violations     int
	firstViolation string
	splitBrain     int
	fenceCount     int
}

// NewManager builds a manager. reachable reports whether a node can renew
// its leases at the current instant (nil means always reachable); bus may be
// nil.
func NewManager(eng *sim.Engine, bus *trace.Bus, opt Options, reachable func(node int) bool) *Manager {
	if reachable == nil {
		reachable = func(int) bool { return true }
	}
	return &Manager{
		eng:       eng,
		bus:       bus,
		opt:       opt.withDefaults(),
		reachable: reachable,
		vols:      make(map[string]*volume),
	}
}

func (m *Manager) vol(name string) *volume {
	v := m.vols[name]
	if v == nil {
		v = &volume{name: name}
		m.vols[name] = v
	}
	return v
}

func (m *Manager) emit(kind trace.Kind, vol string, node int, value float64) {
	if m.bus.Active() {
		m.bus.Emit(trace.Event{Time: m.eng.Now(), Kind: kind, VM: vol,
			Detail: fmt.Sprintf("node%d", node), Value: value})
	}
}

// Acquire grants node a lease on the volume. The first active attachment of
// a volume receives write authority; the second shares the dual-attachment
// window without it. Acquisition fails when the node is unreachable (it
// could not complete the lease handshake) or when the volume is already
// dual-attached by other nodes. A fenced attachment held by the same node is
// replaced by the fresh lease.
func (m *Manager) Acquire(volName string, node int) (*Attachment, error) {
	v := m.vol(volName)
	if !m.reachable(node) {
		return nil, fmt.Errorf("lease: node%d unreachable, cannot acquire %s", node, volName)
	}
	active := 0
	for _, a := range v.atts {
		if a.Node == node && !a.Fenced {
			return nil, fmt.Errorf("lease: node%d already holds %s", node, volName)
		}
		if a.Node != node && !a.Fenced {
			active++
		}
	}
	if active >= 2 {
		return nil, fmt.Errorf("lease: %s already dual-attached", volName)
	}
	// A fenced attachment of the same node is superseded by the new lease.
	v.detachNode(node)
	a := &Attachment{vol: v, Node: node, lastSeen: m.eng.Now()}
	if v.holder() == nil {
		v.epoch++
		a.Epoch = v.epoch
		a.Authority = true
	}
	v.atts = append(v.atts, a)
	m.emit(trace.KindLeaseAcquired, volName, node, float64(v.epoch))
	return a, nil
}

// detachNode removes any attachment held by node from the volume.
func (v *volume) detachNode(node int) {
	out := v.atts[:0]
	for _, a := range v.atts {
		if a.Node == node {
			a.released = true
			continue
		}
		out = append(out, a)
	}
	v.atts = out
}

// Release returns the attachment to the manager. Releasing the authority
// holder leaves the volume without a writer until the next Acquire or
// TransferAuthority.
func (m *Manager) Release(a *Attachment) {
	if a == nil || a.released {
		return
	}
	a.released = true
	a.Authority = false
	out := a.vol.atts[:0]
	for _, b := range a.vol.atts {
		if b != a {
			out = append(out, b)
		}
	}
	a.vol.atts = out
}

// TransferAuthority moves the volume's write authority to the given
// attachment (the switchover step), bumping the write epoch. It reports
// false — and changes nothing — when the target has been fenced or released,
// in which case completing the switchover would be unsafe.
func (m *Manager) TransferAuthority(a *Attachment) bool {
	if a == nil || a.Fenced || a.released {
		return false
	}
	v := a.vol
	if h := v.holder(); h != nil && h != a {
		h.Authority = false
	}
	v.epoch++
	a.Epoch = v.epoch
	a.Authority = true
	a.lastSeen = m.eng.Now()
	m.emit(trace.KindLeaseAcquired, v.name, a.Node, float64(v.epoch))
	return true
}

// MoveAttachment rehomes a single-attachment lease to a new node atomically
// (the degenerate handover the pvfs-shared baseline uses: no dual-attach
// window, the lease and write authority move together at switchover).
func (m *Manager) MoveAttachment(a *Attachment, node int) bool {
	if a == nil || a.Fenced || a.released {
		return false
	}
	v := a.vol
	a.Node = node
	a.lastSeen = m.eng.Now()
	if !a.Authority {
		if h := v.holder(); h != nil {
			h.Authority = false
		}
		a.Authority = true
	}
	v.epoch++
	a.Epoch = v.epoch
	m.emit(trace.KindLeaseAcquired, v.name, node, float64(v.epoch))
	return true
}

// BeginWindow opens a migration window on the volume: the reconciler starts
// ticking every Options.Interval, renewing reachable holders and fencing
// holders silent past TTL+Grace. onFence (may be nil) runs at the instant of
// each fencing decision; onFailover (may be nil) runs instead when fencing
// is disabled and the manager activates the surviving attachment.
func (m *Manager) BeginWindow(volName string, onFence func(*Attachment), onFailover func(loser, winner *Attachment)) {
	v := m.vol(volName)
	v.onFence = onFence
	v.onFailover = onFailover
	if v.monitoring {
		return
	}
	v.monitoring = true
	now := m.eng.Now()
	for _, a := range v.atts {
		a.lastSeen = now
	}
	m.armTick(v)
}

// EndWindow closes the migration window: the reconciler timer is canceled,
// so a drained scenario holds no lease machinery.
func (m *Manager) EndWindow(volName string) {
	v := m.vols[volName]
	if v == nil || !v.monitoring {
		return
	}
	v.monitoring = false
	v.onFence = nil
	v.onFailover = nil
	if v.timerArmed {
		v.timer.Cancel()
		v.timerArmed = false
	}
}

// armTick schedules the volume's next reconcile tick.
func (m *Manager) armTick(v *volume) {
	v.timer = m.eng.At(m.eng.Now()+m.opt.Interval, func() {
		v.timerArmed = false
		if !v.monitoring {
			return
		}
		m.reconcile(v)
		if v.monitoring {
			m.armTick(v)
		}
	})
	v.timerArmed = true
}

// reconcile is one reconciler tick over the volume's attachments.
func (m *Manager) reconcile(v *volume) {
	now := m.eng.Now()
	// Snapshot: fencing callbacks may release attachments while we iterate.
	atts := append([]*Attachment(nil), v.atts...)
	for _, a := range atts {
		if a.released || a.Fenced {
			continue
		}
		if m.reachable(a.Node) {
			a.lastSeen = now
			a.expired = false
			m.emit(trace.KindLeaseRenewed, v.name, a.Node, float64(a.Epoch))
			continue
		}
		age := now - a.lastSeen
		if age > m.opt.TTL && !a.expired {
			a.expired = true
			m.emit(trace.KindLeaseExpired, v.name, a.Node, age)
		}
		if age <= m.opt.TTL+m.opt.Grace {
			continue
		}
		if !m.opt.NoFencing {
			m.fence(v, a)
			continue
		}
		// Fencing disabled: the manager presumes the silent holder dead. If
		// it held write authority and another attachment survives, activate
		// the survivor — the split-brain failover fencing exists to prevent.
		if a.Authority && !a.failedOver {
			if w := v.survivor(a); w != nil {
				a.failedOver = true
				a.Authority = false
				v.epoch++
				w.Epoch = v.epoch
				w.Authority = true
				m.splitBrain++
				m.emit(trace.KindSplitBrain, v.name, w.Node, float64(v.epoch))
				if v.onFailover != nil {
					v.onFailover(a, w)
				}
			}
		}
	}
}

// survivor returns an active attachment of the volume other than a, or nil.
func (v *volume) survivor(a *Attachment) *Attachment {
	for _, b := range v.atts {
		if b != a && !b.Fenced && !b.released {
			return b
		}
	}
	return nil
}

// fence revokes the attachment: the reconciler's straggler detach. The
// holder loses any write authority, its writes are blocked from this instant
// on, and the fence callback (typically aborting the in-flight migration)
// runs synchronously.
func (m *Manager) fence(v *volume, a *Attachment) {
	a.Fenced = true
	a.Authority = false
	m.fenceCount++
	m.emit(trace.KindLeaseFenced, v.name, a.Node, float64(a.Epoch))
	if v.onFence != nil {
		v.onFence(a)
	}
}

// AuthorizeWrite is the write-epoch corruption detector: the shared-image
// path consults it before charging a write from node to the volume. A fenced
// holder's write is blocked (returns false — fencing is exactly the blocking
// of that I/O). A write with current authority proceeds. Any other write —
// no attachment, or an attachment that lost authority — proceeds too (the
// corruption happens) but is recorded as a violation that Err surfaces.
func (m *Manager) AuthorizeWrite(volName string, node int) bool {
	v := m.vols[volName]
	var att *Attachment
	if v != nil {
		for _, a := range v.atts {
			if a.Node == node && !a.released {
				att = a
				break
			}
		}
	}
	if att != nil && att.Fenced {
		return false
	}
	if att != nil && att.Authority {
		return true
	}
	m.violations++
	if m.firstViolation == "" {
		m.firstViolation = fmt.Sprintf("node%d wrote %s at t=%.4f without write authority",
			node, volName, m.eng.Now())
	}
	return true
}

// Violations returns how many writes the detector observed outside a valid
// lease.
func (m *Manager) Violations() int { return m.violations }

// SplitBrainWindows returns how many unsafe failovers the manager took
// (only possible with Options.NoFencing).
func (m *Manager) SplitBrainWindows() int { return m.splitBrain }

// Fences returns how many fencing decisions the reconciler made.
func (m *Manager) Fences() int { return m.fenceCount }

// Attachments returns the volume's active attachment count (tests and
// invariant harnesses).
func (m *Manager) Attachments(volName string) int {
	v := m.vols[volName]
	if v == nil {
		return 0
	}
	n := 0
	for _, a := range v.atts {
		if !a.Fenced && !a.released {
			n++
		}
	}
	return n
}

// Holders returns how many attachments of the volume currently hold write
// authority (the invariant is ≤ 1 at all times).
func (m *Manager) Holders(volName string) int {
	v := m.vols[volName]
	if v == nil {
		return 0
	}
	n := 0
	for _, a := range v.atts {
		if a.Authority {
			n++
		}
	}
	return n
}

// Err returns a hard error wrapping ErrCorruption when the detector observed
// any write outside a valid lease, nil otherwise.
func (m *Manager) Err() error {
	if m.violations == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d violation(s), first: %s", ErrCorruption, m.violations, m.firstViolation)
}

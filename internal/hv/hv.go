// Package hv models the hypervisor: QEMU/KVM-style pre-copy live migration
// of memory, with optional incremental block migration (the paper's
// "precopy" baseline), zero-page elision, and downtime-bounded convergence.
//
// The migration loop mirrors QEMU 1.0's: round 0 moves every non-zero page;
// each later round moves the pages dirtied during the previous round; when
// the remaining dirty payload can be transferred within the max-downtime
// budget (at the measured link rate), the VM is stopped, the final state is
// flushed, the disk image is synced (which is where the paper's migration
// manager intercepts control transfer), and the VM resumes on the
// destination. If the workload dirties faster than the link drains, rounds
// keep shrinking nothing and the loop only exits via the round cap —
// exactly the non-convergence pathology the paper describes for pre-copy
// under I/O-intensive workloads.
package hv

import (
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/trace"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// BlockMigrator is implemented by disk images that participate in QEMU-style
// incremental block migration (the precopy baseline): the hypervisor drags
// their blocks through the same iterative loop as memory.
type BlockMigrator interface {
	// BulkBytes returns the bytes of every currently allocated local block
	// (the bulk phase payload) and arms dirty-block tracking.
	BulkBytes() int64
	// CollectDirtyBytes returns and clears the bytes of blocks dirtied since
	// the previous call.
	CollectDirtyBytes() int64
	// FinishBlockMigration is called at control transfer, after the final
	// (downtime) round has moved the last dirty blocks.
	FinishBlockMigration()
}

// Result summarizes one live migration from the hypervisor's perspective.
type Result struct {
	Requested       sim.Time
	ControlTransfer sim.Time // moment the VM resumed on the destination
	Downtime        float64  // stop-and-copy duration
	Rounds          int      // pre-copy rounds executed (including round 0)
	MemoryBytes     float64  // memory payload moved (incl. device state)
	BlockBytes      float64  // block-migration payload moved
	Converged       bool     // false when the round cap forced stop-and-copy
	Aborted         bool     // an injected fault tore the migration down
}

// Abort is the cancellation handle for one in-flight live migration. A fault
// injector calls Trigger, which cancels the transfer currently on the wire;
// the migration process wakes from its flow wait, observes the flag, and
// unwinds without pausing or moving the VM (or, if already paused, resumes
// it at the source). Everything runs synchronously in simulation context —
// no watcher processes, no timers — so aborting leaves nothing behind.
type Abort struct {
	net     *flow.Net
	aborted bool
	cur     *flow.Flow
}

// NewAbort returns an abort handle bound to the network the migration's
// flows run on.
func NewAbort(net *flow.Net) *Abort { return &Abort{net: net} }

// Trigger aborts the migration: the in-flight transfer (if any) is canceled
// and the migration process unwinds at its next step. Triggering twice, or
// triggering a nil handle, is a no-op.
func (a *Abort) Trigger() {
	if a == nil || a.aborted {
		return
	}
	a.aborted = true
	if a.cur != nil && !a.cur.Done() {
		a.net.Cancel(a.cur)
	}
	a.cur = nil
}

// Aborted reports whether Trigger has fired. Nil handles report false.
func (a *Abort) Aborted() bool { return a != nil && a.aborted }

// Migrate live-migrates v from its current node to dst, blocking until the
// VM runs on dst. bm is non-nil only for the precopy (block migration)
// baseline. The image's Sync is invoked right before control transfer, which
// is the hook the migration manager uses (Section 4.4 of the paper).
// stopGate, when non-nil, delays stop-and-copy until it opens — the mirror
// baseline keeps the VM live (with writes mirrored) until the bulk copy
// completes, so the hypervisor idles in extra rounds instead of freezing the
// guest (Haselhorst et al.'s full-synchronization-before-control rule).
//
// The start of every pre-copy round is published on bus as a
// trace.KindRound event (round number and payload bytes); a nil bus traces
// nothing. When the fault-injection handle ab is triggered mid-migration the
// in-flight transfer is canceled and the migration unwinds with
// Result.Aborted set, leaving the VM running at the source. Byte counters
// then report what actually crossed the wire before the abort (the wasted
// traffic of the attempt). A nil ab disables aborts.
func Migrate(p *sim.Proc, cl *fabric.Cluster, v *vm.VM, dst *fabric.Node, hp params.Hypervisor, bm BlockMigrator, stopGate *sim.Gate, bus *trace.Bus, ab *Abort) Result {
	eng := cl.Eng
	src := v.Node
	res := Result{Requested: eng.Now()}

	transfer := func(bytes float64, tag flow.Tag) float64 {
		if bytes <= 0 || ab.Aborted() {
			return 0
		}
		start := eng.Now()
		path := cl.NetPath(src, dst)
		if tag == flow.TagBlockMig {
			// QEMU's block migration reads blocks synchronously through the
			// block layer: the source disk is on the path and contends with
			// guest writeback — a key reason the precopy baseline starves
			// under I/O-intensive guests.
			path = append([]*flow.Link{src.Disk}, path...)
		}
		f := &flow.Flow{Links: path, Size: bytes, MaxRate: hp.MigrationSpeed, Tag: tag}
		cl.Net.Start(f)
		if ab != nil {
			ab.cur = f
		}
		f.Wait(p)
		if ab != nil {
			ab.cur = nil
		}
		// Account what actually moved: a completed flow moved exactly bytes,
		// a canceled one only its settled part.
		moved := bytes - f.Remaining()
		if tag == flow.TagBlockMig {
			res.BlockBytes += moved
		} else {
			res.MemoryBytes += moved
		}
		return eng.Now() - start
	}

	// Round 0: full non-zero memory plus, for block migration, every
	// allocated block.
	memPayload := float64(v.Mem.NonZeroBytes())
	var blkPayload float64
	if bm != nil {
		blkPayload = float64(bm.BulkBytes())
	}

	rate := hp.MigrationSpeed // estimate until measured
	for round := 0; ; round++ {
		res.Rounds = round + 1
		if bus.Active() {
			bus.Emit(trace.Event{Time: eng.Now(), Kind: trace.KindRound, VM: v.Name,
				Round: round, Value: memPayload + blkPayload})
		}
		dur := transfer(blkPayload, flow.TagBlockMig)
		dur += transfer(memPayload, flow.TagMemory)
		if ab.Aborted() {
			res.Aborted = true
			return res
		}
		if moved := memPayload + blkPayload; dur > 0 && moved > 0 {
			rate = moved / dur
		}

		memPayload = float64(v.Mem.CollectDirty(eng.Now()))
		blkPayload = 0
		if bm != nil {
			blkPayload = float64(bm.CollectDirtyBytes())
		}
		remaining := memPayload + blkPayload
		if remaining <= rate*hp.MaxDowntime {
			if stopGate != nil && !stopGate.IsOpen() {
				// Converged but storage is not synchronized yet: keep the VM
				// live, wait for the gate, and run one more catch-up round.
				stopGate.Wait(p)
				if ab.Aborted() {
					res.Aborted = true
					return res
				}
				memPayload = float64(v.Mem.CollectDirty(eng.Now()))
				if bm != nil {
					blkPayload = float64(bm.CollectDirtyBytes())
				}
				continue
			}
			res.Converged = true
			break
		}
		if round+1 >= hp.MaxRounds {
			res.Converged = false
			break
		}
	}

	// Stop-and-copy: pause, quiesce the disk image (this flushes buffered
	// writes and, for the migration manager, performs the control handoff of
	// Section 4.4 — the destination is ready to intercept I/O before the VM
	// resumes there), then flush the final dirty payload and device state.
	v.Pause()
	stopStart := eng.Now()
	v.Image.Sync(p)
	// Dirtying that raced in before the pause, plus blocks written by the
	// sync's flush.
	memPayload += float64(v.Mem.CollectDirty(eng.Now()))
	if bm != nil {
		blkPayload += float64(bm.CollectDirtyBytes())
	}
	transfer(blkPayload, flow.TagBlockMig)
	transfer(memPayload+float64(hp.DeviceState), flow.TagMemory)
	if ab.Aborted() {
		// Fault during stop-and-copy: the destination never went live, so
		// the VM resumes where it is — at the source.
		res.Downtime = eng.Now() - stopStart
		v.Resume()
		res.Aborted = true
		return res
	}
	if bm != nil {
		bm.FinishBlockMigration()
	}
	v.MoveTo(dst)
	res.Downtime = eng.Now() - stopStart
	v.Resume()
	res.ControlTransfer = eng.Now()
	return res
}

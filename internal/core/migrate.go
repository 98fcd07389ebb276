package core

import (
	"fmt"
	"slices"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// emitPhase publishes a storage-migration phase transition to the observer
// bus, if one is attached.
func (im *Image) emitPhase(phase string) {
	if !im.opts.Trace.Active() {
		return
	}
	im.opts.Trace.Emit(trace.Event{
		Time: im.eng.Now(), Kind: trace.KindPhase, VM: im.name, Detail: phase,
	})
}

// MigrationRequest implements Algorithm 1: the manager assumes the source
// role, queues every locally modified chunk for transfer, resets write
// counts, and (hybrid mode) starts the BACKGROUND PUSH task. The caller then
// forwards the migration request to the hypervisor (hv.Migrate), whose sync
// triggers the transfer of I/O control.
func (im *Image) MigrationRequest(dstNode *fabric.Node) {
	if im.state != stIdle {
		panic(fmt.Sprintf("core: %s: migration requested while one is active", im.name))
	}
	n := im.geo.Chunks()
	im.migEpoch++
	im.dstNode = dstNode
	im.dst = newSide(dstNode, n)
	if im.opts.Preseeded {
		// The destination holds a pre-staged base replica; it only owes
		// the source the modified chunks (and base prefetch finds nothing
		// to do). category() keeps remaining/in-flight chunks authoritative
		// over the stale base replica.
		im.dst.local.AddRange(0, chunk.Idx(n-1))
	}
	im.remaining = im.cur.modified.Clone()
	im.writeCount = chunk.NewCounter(n)
	im.state = stPushing
	im.syncSeen = false
	im.pushAborted = false
	im.pushFlow = nil
	im.pushBatch = nil
	im.released = sim.Gate{}
	im.bulkDone = sim.Gate{}
	im.inFlight = chunk.NewSet(n)
	im.dstFresh = chunk.NewSet(n)
	im.known = make(map[uint64]bool)
	im.pullsActive = 0
	im.pullSuspend = 0
	im.xferFlows = im.xferFlows[:0]
	im.stats = Stats{RequestedAt: im.eng.Now()}

	switch im.opts.Mode {
	case ModeHybrid:
		im.mirrorActive = false
		im.emitPhase("push")
		im.startPush()
	case ModeMirror:
		im.mirrorActive = true
		im.emitPhase("mirror")
		im.startBulkCopy()
	case ModePostcopy:
		im.mirrorActive = false // passive push phase
		im.emitPhase("passive")
	}
}

// startPush launches the BACKGROUND PUSH task of Algorithm 1.
func (im *Image) startPush() {
	epoch := im.migEpoch
	im.eng.Go(im.name+"/push", func(p *sim.Proc) {
		src := im.cur
		cursor := chunk.Idx(0)
		for !im.syncSeen && im.migEpoch == epoch {
			batch := im.nextPushBatch(&cursor)
			if len(batch) == 0 {
				if im.eligiblePushExists() {
					continue // cursor wrapped; rescan
				}
				im.pushCond.Wait(p)
				continue
			}
			// Remove before sending (Algorithm 1 line 18); re-added by
			// WRITE if modified mid-flight.
			for _, c := range batch {
				im.remaining.Remove(c)
			}
			snapshot := make([]uint64, len(batch))
			for i, c := range batch {
				snapshot[i] = src.content[c]
			}
			wire := im.wireBytes(p, batch, snapshot)
			if im.migEpoch != epoch {
				return // aborted while charging compression time
			}
			im.pushBatch = batch
			im.pushFlow = im.cl.TransferFlowPath(
				im.streamPath(src.node, im.dstNode), wire, flow.TagStoragePush, nil)
			im.pushFlow.Wait(p)
			if im.migEpoch != epoch {
				// Aborted — and possibly already re-requested, in which case
				// the new attempt owns pushFlow/pushBatch/pushAborted and a
				// stale process must touch nothing (Abort charged the wire
				// bytes; installing the batch would corrupt the retry).
				return
			}
			aborted := im.pushAborted
			im.pushFlow = nil
			im.pushBatch = nil
			if aborted {
				return
			}
			im.stats.PushedBytes += wire
			im.stats.PushedChunks += len(batch)
			for i, c := range batch {
				im.installAtDest(c, snapshot[i])
			}
		}
	})
}

// nextPushBatch collects up to PushBatch eligible chunks scanning upward
// from the cursor (eligible: queued and written fewer than Threshold times).
func (im *Image) nextPushBatch(cursor *chunk.Idx) []chunk.Idx {
	var batch []chunk.Idx
	c := *cursor
	for len(batch) < im.opts.PushBatch {
		c = im.remaining.NextFrom(c)
		if c < 0 {
			break
		}
		if im.writeCount.Get(c) < im.opts.Threshold {
			batch = append(batch, c)
		}
		c++
	}
	if c < 0 {
		*cursor = 0 // wrapped
	} else {
		*cursor = c
	}
	return batch
}

// eligiblePushExists reports whether any queued chunk is still under the
// threshold.
func (im *Image) eligiblePushExists() bool {
	found := false
	im.remaining.ForEach(func(c chunk.Idx) bool {
		if im.writeCount.Get(c) < im.opts.Threshold {
			found = true
			return false
		}
		return true
	})
	return found
}

// startBulkCopy launches the mirror baseline's background full copy of the
// current modified set.
func (im *Image) startBulkCopy() {
	epoch := im.migEpoch
	im.eng.Go(im.name+"/bulk", func(p *sim.Proc) {
		src := im.cur
		todo := im.remaining // snapshot of modified chunks at request time
		cursor := chunk.Idx(0)
		for im.migEpoch == epoch {
			// The mirror baseline's bulk copy is a sequence of synchronous
			// remote writes (each acknowledged), not a stream: it pays the
			// same per-request overhead as pulls.
			start, n := todo.NextRunFrom(cursor, im.opts.PullBatch)
			if start < 0 {
				break
			}
			todo.RemoveRange(start, start+chunk.Idx(n-1))
			batch := make([]chunk.Idx, 0, n)
			snapshot := make([]uint64, 0, n)
			for i := 0; i < n; i++ {
				c := start + chunk.Idx(i)
				batch = append(batch, c)
				snapshot = append(snapshot, src.content[c])
			}
			wire := im.wireBytes(p, batch, snapshot)
			p.Sleep(im.opts.PullRequestLatency + 2*im.cl.P.NetLatency)
			if im.migEpoch != epoch {
				return // aborted during the request round trip
			}
			if !im.trackedTransfer(p, epoch, im.streamPath(src.node, im.dstNode), wire, flow.TagMirror) {
				return // aborted mid-transfer: nothing installed
			}
			im.stats.MirroredBytes += wire
			for i, c := range batch {
				im.installAtDest(c, snapshot[i])
			}
			cursor = start + chunk.Idx(n)
		}
		im.bulkDone.Open(im.eng)
	})
}

// wireBytes returns the bytes to put on the wire for a batch, applying
// dedup and compression options, charging compression CPU time.
func (im *Image) wireBytes(p *sim.Proc, batch []chunk.Idx, snapshot []uint64) float64 {
	var payload float64
	for i, c := range batch {
		if im.opts.Dedup {
			if im.known[snapshot[i]] {
				im.stats.DedupHits++
				payload += dedupHashBytes
				continue
			}
			im.known[snapshot[i]] = true // in transit: later duplicates dedup
		}
		payload += float64(im.geo.ChunkLen(c))
	}
	if r := im.opts.CompressionRatio; r > 0 && r < 1 {
		if im.opts.CompressBW > 0 {
			p.Sleep(payload / im.opts.CompressBW)
		}
		payload *= r
	}
	return payload
}

// installAtDest records that a chunk's content has landed on the
// destination's local disk. Content that reached the destination through a
// fresher path (mirrored or destination-local write) always wins.
func (im *Image) installAtDest(c chunk.Idx, content uint64) {
	if im.dst == nil || im.dstFresh.Contains(c) {
		return
	}
	im.dst.local.Add(c)
	im.dst.modified.Add(c) // differs from the base image on this side too
	im.dst.content[c] = content
	im.known[content] = true
	im.notifyInstall(c, c)
}

// notifyInstall reports a destination install to the orchestrator hook.
func (im *Image) notifyInstall(first, last chunk.Idx) {
	if im.OnDestInstall == nil {
		return
	}
	r1 := im.geo.ChunkRange(first)
	r2 := im.geo.ChunkRange(last)
	im.OnDestInstall(r1.Off, r2.End()-r1.Off)
}

// streamPath is the transfer path for migration streams. Chunk content is
// served from (and lands in) the hosts' page caches — the image is small
// relative to host RAM — so streams are network-bound; physical-disk drain
// is modeled separately by the cache writeback.
func (im *Image) streamPath(src, dst *fabric.Node) []*flow.Link {
	return im.cl.NetPath(src, dst)
}

// Sync implements vm.DiskImage. Outside a migration it is a plain flush.
// During one, it is the control-transfer hook (Section 4.4): the source
// stops pushing, waits for in-flight writes, and invokes TRANSFER IO CONTROL
// on the destination. When Sync returns, guest I/O lands on the destination.
func (im *Image) Sync(p *sim.Proc) {
	if im.state != stPushing {
		if im.backing != nil {
			im.backing.Sync(p)
		}
		return
	}
	epoch := im.migEpoch
	im.syncSeen = true
	// Drain guest writes already in flight (the VM is paused; no new ones).
	// The backing store is NOT flushed here: the manager tracks every write
	// itself and the source keeps serving pulls from its cache until
	// released, so the handoff does not wait on physical writeback (the
	// paper's manager likewise acknowledges the hypervisor's sync without
	// draining the disk).
	im.activeWrites.Wait(p)
	if im.migEpoch != epoch {
		return // aborted during the drain: no control transfer
	}

	if im.mirrorActive {
		// Mirror semantics: control transfer requires full synchronization.
		im.bulkDone.Wait(p)
		im.cl.ControlRTT(p)
		if im.migEpoch != epoch {
			return
		}
		im.finishMirror()
		return
	}

	// Abort the in-flight push batch, if any: its chunks go back to the
	// remaining set (partial batch data is discarded — correctness comes
	// from the pull phase; the bytes already on the wire are accounted as
	// canceled-push overhead).
	if im.pushFlow != nil {
		im.pushAborted = true
		var rem float64
		if !im.pushFlow.Done() {
			rem = im.cl.Net.Cancel(im.pushFlow)
		}
		im.stats.CanceledPushBytes += im.pushFlow.Size - rem
		for _, c := range im.pushBatch {
			im.remaining.Add(c)
			im.stats.CanceledPushes++
		}
	}
	im.pushCond.Broadcast(im.eng) // release a waiting push loop so it exits

	// Count the chunks the threshold kept away from the push phase.
	im.remaining.ForEach(func(c chunk.Idx) bool {
		if im.writeCount.Get(c) >= im.opts.Threshold {
			im.stats.SkippedHot++
		}
		return true
	})

	// TRANSFER IO CONTROL: ship the remaining set, write counts, and the
	// hot-base-content hints to the destination.
	im.cl.ControlRTT(p)
	if im.migEpoch != epoch {
		return // aborted during the control round trip
	}
	im.transferIOControl()
}

// finishMirror completes a mirror migration at control transfer: the
// destination holds everything, the source is released immediately.
func (im *Image) finishMirror() {
	now := im.eng.Now()
	im.stats.ControlAt = now
	im.stats.ReleasedAt = now
	im.stats.Complete = true
	im.emitPhase("control-transfer")
	im.emitPhase("released")
	im.promoteDest()
	im.state = stIdle
	im.mirrorActive = false
	im.released.Open(im.eng)
}

// transferIOControl implements Algorithm 3's destination activation.
func (im *Image) transferIOControl() {
	im.stats.ControlAt = im.eng.Now()
	im.emitPhase("control-transfer")
	// Hints: base-image content the source had cached (hot base content),
	// as the maximal runs of local &^ modified.
	var hints []chunkRun
	if im.opts.BasePrefetch {
		for first, last := range im.cur.local.DiffRuns(im.cur.modified) {
			hints = append(hints, chunkRun{first, last})
		}
	}
	counts := im.writeCount.Snapshot()
	if !im.opts.PullPriority {
		counts = make([]uint32, len(counts)) // FIFO ablation: flat priority
	}
	im.promoteDest()
	im.state = stPulling
	im.pullGates = make(map[chunk.Idx]*sim.Gate)
	im.pullQueue = chunk.NewPullQueue(im.remaining, counts)
	im.startPull()
	if len(hints) > 0 {
		im.startBasePrefetch(hints)
	}
	im.maybeComplete()
}

// promoteDest makes the destination the active side.
func (im *Image) promoteDest() {
	im.old = im.cur
	im.cur = im.dst
	im.dst = nil
}

// startPull launches BACKGROUND PULL (Algorithm 3): prefetch remaining
// chunks in decreasing write-count order, batching for streaming.
func (im *Image) startPull() {
	epoch := im.migEpoch
	im.eng.Go(im.name+"/pull", func(p *sim.Proc) {
		for {
			for im.pullSuspend > 0 {
				im.pullResume.Wait(p)
				if im.migEpoch != epoch {
					return
				}
			}
			first := im.pullQueue.Pop()
			if first < 0 {
				break
			}
			batch := []chunk.Idx{first}
			for len(batch) < im.opts.PullBatch {
				c := im.pullQueue.Pop()
				if c < 0 {
					break
				}
				batch = append(batch, c)
			}
			im.pullChunks(p, batch, false)
			if im.migEpoch != epoch {
				return
			}
		}
		im.maybeComplete()
	})
}

// pullChunks transfers a set of remaining chunks from the relinquished
// source. onDemand marks priority pulls triggered by guest I/O. On abort it
// returns with the attempt's state untouched (the caller re-checks the
// migration epoch).
func (im *Image) pullChunks(p *sim.Proc, batch []chunk.Idx, onDemand bool) {
	epoch := im.migEpoch
	src := im.old
	gate := &sim.Gate{}
	for _, c := range batch {
		im.remaining.Remove(c)
		im.inFlight.Add(c)
		im.pullGates[c] = gate
	}
	snapshot := make([]uint64, len(batch))
	for i, c := range batch {
		snapshot[i] = src.content[c]
	}
	wire := im.wireBytes(p, batch, snapshot)
	im.pullsActive++
	// Pulls are request/response: each pays service latency at the source
	// in addition to the network round trip, unlike the streaming push.
	p.Sleep(im.opts.PullRequestLatency + 2*im.cl.P.NetLatency)
	if im.migEpoch != epoch {
		return // aborted during the request round trip
	}
	if !im.trackedTransfer(p, epoch, im.streamPath(src.node, im.cur.node), wire, flow.TagStoragePull) {
		return // aborted mid-transfer: nothing installed
	}
	im.pullsActive--
	if onDemand {
		im.stats.OnDemandBytes += wire
		im.stats.OnDemandPulls += len(batch)
	} else {
		im.stats.PulledBytes += wire
		im.stats.PulledChunks += len(batch)
	}
	for i, c := range batch {
		im.inFlight.Remove(c)
		delete(im.pullGates, c)
		if im.dstFresh.Contains(c) {
			continue // a destination write superseded the pull mid-flight
		}
		im.cur.local.Add(c)
		im.cur.modified.Add(c)
		im.cur.content[c] = snapshot[i]
		im.known[snapshot[i]] = true
		im.notifyInstall(c, c)
	}
	gate.Open(im.eng)
	im.maybeComplete()
}

// onDemandPull serves a guest access to chunks still owed by the source
// (Algorithm 4): suspend the background prefetcher, pull with priority,
// resume. Chunks already in flight are awaited instead of re-pulled.
func (im *Image) onDemandPull(p *sim.Proc, first, last chunk.Idx) {
	epoch := im.migEpoch
	for im.migEpoch == epoch && im.isDest() {
		var need []chunk.Idx
		var awaitGate *sim.Gate
		for c := first; c <= last; c++ {
			switch {
			case im.remaining.Contains(c):
				need = append(need, c)
			case im.inFlight.Contains(c):
				awaitGate = im.pullGates[c]
			}
		}
		if len(need) == 0 && awaitGate == nil {
			return
		}
		if len(need) > 0 {
			im.pullSuspend++
			im.pullChunks(p, need, true)
			if im.migEpoch != epoch {
				return // aborted: the fallback source serves the access
			}
			im.pullSuspend--
			im.pullResume.Broadcast(im.eng)
			continue // re-check: writes may have raced
		}
		awaitGate.Wait(p)
	}
}

// chunkRun is the chunk interval [first, last].
type chunkRun struct{ first, last chunk.Idx }

// startBasePrefetch fetches hot base-image content from the repository in
// the background (never from the source), rate-capped so it does not starve
// the pulls. hints are disjoint runs in ascending order.
func (im *Image) startBasePrefetch(hints []chunkRun) {
	epoch := im.migEpoch
	im.eng.Go(im.name+"/baseprefetch", func(p *sim.Proc) {
		dest := im.cur
		for _, h := range hints {
			if im.migEpoch != epoch {
				return
			}
			// Skip chunks that arrived some other way meanwhile.
			first, last := dest.firstMissing(h.first, h.last), h.last
			if first > last {
				continue
			}
			r1 := im.geo.ChunkRange(first)
			r2 := im.geo.ChunkRange(last)
			length := r2.End() - r1.Off
			done := &sim.Gate{}
			im.base.ReadRangeAsync(dest.node, r1.Off, length, im.opts.BasePrefetchRate,
				func() { done.Open(im.eng) })
			done.Wait(p)
			if im.migEpoch != epoch {
				return // aborted: the crashed destination discards the prefetch
			}
			im.stats.PrefetchBytes += float64(length)
			// Install base content wherever no modified chunk overrides it.
			for c := first; c <= last; {
				end := dest.modified.RunEnd(c, last)
				if !dest.modified.Contains(c) {
					dest.local.AddRange(c, end)
				}
				c = end + 1
			}
			im.notifyInstall(first, last)
		}
	})
}

// firstMissing returns the first chunk of [first, last] the side holds
// neither locally nor as modified, or last+1 when it holds them all.
func (sd *side) firstMissing(first, last chunk.Idx) chunk.Idx {
	for first <= last {
		switch {
		case sd.local.Contains(first):
			first = sd.local.RunEnd(first, last) + 1
		case sd.modified.Contains(first):
			first = sd.modified.RunEnd(first, last) + 1
		default:
			return first
		}
	}
	return first
}

// maybeComplete releases the source once the destination owes it nothing.
func (im *Image) maybeComplete() {
	if im.state != stPulling || im.stats.Complete {
		return
	}
	if !im.remaining.Empty() || !im.inFlight.Empty() || im.pullsActive > 0 {
		return
	}
	im.stats.ReleasedAt = im.eng.Now()
	im.stats.Complete = true
	im.state = stIdle
	im.old = nil
	im.emitPhase("released")
	im.released.Open(im.eng)
}

// registerFlow tracks an in-flight migration transfer so Abort can cancel
// it. Registration order is the deterministic cancel order.
func (im *Image) registerFlow(f *flow.Flow) {
	im.xferFlows = append(im.xferFlows, f)
}

// unregisterFlow drops a transfer from the abort set. Absent flows (already
// swept by an abort) are a no-op.
func (im *Image) unregisterFlow(f *flow.Flow) {
	for i, g := range im.xferFlows {
		if g == f {
			im.xferFlows = append(im.xferFlows[:i], im.xferFlows[i+1:]...)
			return
		}
	}
}

// trackedTransfer runs one abortable migration transfer: start the flow,
// register it for Abort, wait, unregister. It reports whether the attempt
// that issued it is still live — false means a fault tore the attempt down
// mid-transfer (the abort already charged the wire bytes) and the caller
// must touch no further attempt state.
func (im *Image) trackedTransfer(p *sim.Proc, epoch uint64, links []*flow.Link, size float64, tag flow.Tag) bool {
	f := &flow.Flow{Links: links, Size: size, Tag: tag}
	im.cl.Net.Start(f)
	im.registerFlow(f)
	f.Wait(p)
	im.unregisterFlow(f)
	return im.migEpoch == epoch
}

// cancelXfers cancels every registered in-flight transfer in registration
// order, charging the bytes each moved to the attempt's wasted counter. A
// registered flow is exactly one whose waiting process has not yet resumed
// and accounted it: flows still on the wire are canceled and charged for
// their settled part; flows that completed in this very instant (the process
// wake-up was queued behind the abort) are charged in full — the epoch guard
// will stop the process from installing or double-counting them.
func (im *Image) cancelXfers() {
	flows := im.xferFlows
	im.xferFlows = nil
	for _, f := range flows {
		var rem float64
		if !f.Done() {
			rem = im.cl.Net.Cancel(f)
		}
		im.stats.AbortedWireBytes += f.Size - rem
	}
}

// Abort tears down the in-flight migration after an injected fault (a
// destination-node crash, a link blackout that makes completion hopeless, an
// exceeded deadline). Every in-flight push/pull/bulk/mirror transfer is
// canceled, destination-side state is released, and I/O control stays at —
// or falls back to — the source replica, which a migration never gives up
// before full completion (the scheme's own safety property: the source holds
// everything until RELEASED). Destination writes made after control transfer
// are lost with the crashed destination, exactly as a real crash loses them.
// Stats for the attempt remain readable (Aborted, wasted wire bytes); a
// subsequent MigrationRequest starts a clean retry. Returns false when no
// migration is in flight.
//
// Abort runs synchronously (engine or process context): it schedules no
// work of its own, only cancels, so a retry can be requested immediately.
func (im *Image) Abort(reason string) bool {
	if im.state == stIdle {
		return false
	}
	fromState := im.state
	im.migEpoch++ // every parked attempt process bails at its next step
	im.stats.Aborted = true

	// Cancel the in-flight push batch, if any (hybrid source phase). A push
	// already canceled by a racing Sync was charged there; a flow that
	// completed but whose process has not resumed is charged in full.
	if im.pushFlow != nil && !im.pushAborted {
		im.pushAborted = true
		var rem float64
		if !im.pushFlow.Done() {
			rem = im.cl.Net.Cancel(im.pushFlow)
		}
		im.stats.AbortedWireBytes += im.pushFlow.Size - rem
		for range im.pushBatch {
			im.stats.CanceledPushes++
		}
	}
	im.pushCond.Broadcast(im.eng)
	im.cancelXfers()

	if fromState == stPulling {
		// Destination crash after control transfer: fall back to the source
		// side, which still holds every chunk the destination had not yet
		// pulled plus everything it ever pushed.
		im.cur = im.old
		// Release guest accesses parked on pull-arrival gates; they re-check
		// the (now idle) state and proceed against the source replica.
		gates := make([]*sim.Gate, 0, len(im.pullGates))
		idxs := make([]chunk.Idx, 0, len(im.pullGates))
		for c := range im.pullGates {
			idxs = append(idxs, c)
		}
		slices.Sort(idxs) // map order is not deterministic; wake in chunk order
		seen := map[*sim.Gate]bool{}
		for _, c := range idxs {
			if g := im.pullGates[c]; !seen[g] {
				seen[g] = true
				gates = append(gates, g)
			}
		}
		for _, g := range gates {
			g.Open(im.eng)
		}
	}
	im.pullSuspend = 0
	im.pullsActive = 0
	im.pullResume.Broadcast(im.eng)
	// A mirror-mode hypervisor may be parked on the bulk gate; open it so it
	// wakes and observes the abort.
	im.bulkDone.Open(im.eng)
	im.mirrorActive = false

	im.state = stIdle
	im.old = nil
	im.dst = nil
	im.dstNode = nil
	im.remaining = nil
	im.inFlight = nil
	im.pullQueue = nil
	im.pullGates = nil
	im.writeCount = nil
	im.dstFresh = nil

	// The manager-level view of the abort is a phase transition; the
	// middleware publishes the aggregate trace.KindMigrationAborted event.
	im.emitPhase("aborted:" + reason)
	// Wake WaitComplete callers; Complete() stays false for the attempt.
	im.released.Open(im.eng)
	return true
}

// BulkDoneGate returns the gate that opens when the mirror bulk copy has
// fully synchronized the destination (always open for other modes' callers
// after control transfer).
func (im *Image) BulkDoneGate() *sim.Gate { return &im.bulkDone }

// WaitComplete parks until the migration fully completes (source released).
func (im *Image) WaitComplete(p *sim.Proc) {
	im.released.Wait(p)
}

// Complete reports whether the last migration has fully finished.
func (im *Image) Complete() bool { return im.stats.Complete }

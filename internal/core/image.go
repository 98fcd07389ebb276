// Package core implements the paper's contribution: the migration manager, a
// transparent interposition layer between the hypervisor and local storage
// that implements the hybrid active push / prioritized prefetch scheme for
// live storage migration (Sections 4.1–4.4 and Algorithms 1–4).
//
// Under normal operation the manager exposes the base disk image (stored in
// the striped repository, an instance of package pfs) as a locally
// modifiable view: writes create chunks on the local disk, reads of
// untouched regions fetch chunks from the repository on demand and cache
// them locally.
//
// During a live migration the manager:
//
//  1. actively pushes locally modified chunks to the destination while the
//     VM still runs at the source, skipping chunks whose write count reaches
//     Threshold (they would likely be overwritten again — Algorithm 1);
//  2. intercepts the hypervisor's sync right before control transfer and
//     sends the destination the remaining set with its write counts
//     (TRANSFER IO CONTROL — Algorithm 3);
//  3. on the destination, prefetches the remaining chunks in decreasing
//     write-count order, serving on-demand reads with priority by suspending
//     the prefetcher (Algorithms 3 and 4), while writes cancel pending pulls
//     (Algorithm 2);
//  4. prefetches hot base-image content from the repository using hints
//     from the source, never from the source itself.
//
// The same type also implements the mirror baseline (synchronous write
// mirroring after a background bulk copy, per Haselhorst et al.) and the
// pure postcopy baseline (the hybrid scheme with the push phase disabled),
// which the paper evaluates against.
package core

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/pfs"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/trace"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// Mode selects the storage transfer strategy.
type Mode int

// Strategies implemented by the manager.
const (
	// ModeHybrid is the paper's approach: active push with a write-count
	// threshold, then prioritized pull after control transfer.
	ModeHybrid Mode = iota
	// ModeMirror reproduces Haselhorst et al.: background bulk copy plus
	// synchronous mirroring of every write; control transfer waits for full
	// synchronization.
	ModeMirror
	// ModePostcopy stays passive until control transfer and then pulls
	// everything (the paper's postcopy baseline, built from our approach).
	ModePostcopy
)

func (m Mode) String() string {
	switch m {
	case ModeHybrid:
		return "our-approach"
	case ModeMirror:
		return "mirror"
	case ModePostcopy:
		return "postcopy"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Options tunes the migration manager: the params.Manager tuning plus the
// mode and the trace sink of one image. The zero value is not useful; start
// from DefaultOptions.
type Options struct {
	params.Manager
	Mode Mode
	// Trace, when non-nil, receives the manager's migration phase
	// transitions (trace.KindPhase events: "push"/"mirror"/"passive",
	// "control-transfer", "released").
	Trace *trace.Bus
}

// DefaultOptions returns the paper-default manager configuration for the
// given mode.
func DefaultOptions(mode Mode) Options {
	return Options{Manager: params.DefaultManager(), Mode: mode}
}

// dedupHashBytes is the wire cost of advertising a chunk hash when Dedup
// is on.
const dedupHashBytes = 1024

// Stats exposes what the experiments measure.
type Stats struct {
	RequestedAt sim.Time // MIGRATION REQUEST received
	ControlAt   sim.Time // TRANSFER IO CONTROL completed (destination live)
	ReleasedAt  sim.Time // source fully relinquished
	Complete    bool

	PushedBytes    float64 // wire bytes actively pushed
	PulledBytes    float64 // wire bytes background-pulled
	OnDemandBytes  float64 // wire bytes pulled on demand by reads/writes
	PrefetchBytes  float64 // base-image bytes prefetched from the repository
	MirroredBytes  float64 // wire bytes of synchronous mirroring + bulk copy
	RepoReadBytes  float64 // on-demand base image fetches (both sides)
	PushedChunks   int
	PulledChunks   int
	OnDemandPulls  int
	RMWStalls      int // partial-chunk writes that had to fetch first
	SkippedHot     int // chunks left to the pull phase by the threshold
	DedupHits      int
	CanceledPushes int // chunks whose in-flight push was aborted by sync
	// CanceledPushBytes is the wire traffic of the push batch that the
	// control transfer canceled mid-flight (its data is discarded and the
	// chunks return to the pull queue) — overhead inherent to the scheme.
	CanceledPushBytes float64

	// Fault-injection outcome of this attempt (see Image.Abort).
	Aborted          bool    // the attempt was torn down by a fault
	AbortedWireBytes float64 // bytes moved by transfers canceled at abort time
}

// WireBytes returns every storage byte this attempt put on the wire: the
// completed push/pull/mirror payloads, the sync-canceled push partials, and
// the settled part of transfers a fault canceled mid-flight. For an aborted
// attempt all of it is wasted traffic.
func (s Stats) WireBytes() float64 {
	return s.PushedBytes + s.PulledBytes + s.OnDemandBytes + s.MirroredBytes +
		s.CanceledPushBytes + s.AbortedWireBytes
}

// side is the manager state on one node.
type side struct {
	node     *fabric.Node
	local    *chunk.Set        // chunks available on the local disk
	modified *chunk.Set        // ModifiedSet of the paper
	content  chunk.IDs[uint64] // per-chunk content IDs (0 = base content), paged on first write
}

func newSide(node *fabric.Node, n int) *side {
	return &side{
		node:     node,
		local:    chunk.NewSet(n),
		modified: chunk.NewSet(n),
		content:  chunk.NewIDs[uint64](n),
	}
}

// migState is the migration lifecycle.
type migState int

const (
	stIdle    migState = iota
	stPushing          // source active phase (hybrid/postcopy) or mirror phase
	stPulling          // destination active phase after control transfer
)

// Image is the migration manager's locally modifiable view of a base disk
// image, attached to a VM as its vm.DiskImage.
type Image struct {
	eng     *sim.Engine
	cl      *fabric.Cluster
	geo     chunk.Geometry
	base    *pfs.File
	backing vm.DiskImage // the manager's backing store (host-cached local file)
	opts    Options
	name    string

	cur *side // side serving guest I/O
	dst *side // destination side while a migration is in progress
	old *side // relinquished source side after control transfer

	state   migState
	dstNode *fabric.Node

	// Source-phase state (Algorithm 1).
	remaining   *chunk.Set
	dstFresh    *chunk.Set // chunks whose latest content already reached the destination via a write (mirror or destination-local); transfers must not overwrite them
	writeCount  *chunk.Counter
	pushCond    sim.Cond
	pushAborted bool
	pushFlow    *flow.Flow
	pushBatch   []chunk.Idx
	syncSeen    bool

	// Destination-phase state (Algorithms 3 and 4).
	pullQueue   *chunk.PullQueue
	pullSuspend int
	pullResume  sim.Cond
	inFlight    *chunk.Set              // chunks being pulled right now
	pullGates   map[chunk.Idx]*sim.Gate // per-chunk arrival gates
	pullsActive int                     // pull flows in flight (background + on-demand)

	// Mirror-phase state.
	bulkDone     sim.Gate
	mirrorActive bool

	// Abort state. migEpoch is bumped by MigrationRequest and Abort; every
	// blocking migration step captures it first and bails out afterwards if
	// it moved, so processes of a torn-down attempt can never touch the state
	// of a later one. xferFlows tracks the in-flight pull/bulk/mirror
	// transfers (the push flow has its own handle) so Abort can cancel them
	// in registration order, deterministically.
	migEpoch  uint64
	xferFlows []*flow.Flow

	// Write draining for a clean sync.
	activeWrites sim.WaitGroup

	released sim.Gate
	seq      uint64
	known    map[uint64]bool // content at destination, for dedup; nil unless Dedup is on
	stats    Stats

	// OnDestInstall, when set, observes every chunk range installed at the
	// destination by a push, pull, or base prefetch. The orchestrator uses
	// it to mark transferred content warm in the destination host's cache.
	OnDestInstall func(off, length int64)
}

var _ vm.DiskImage = (*Image)(nil)

// NewImage creates a manager view of base on the given node. backing is the
// manager's local store (typically the guest package's cache over a raw
// disk); if nil, a plain disk-time model is used directly.
func NewImage(eng *sim.Engine, cl *fabric.Cluster, node *fabric.Node, geo chunk.Geometry, base *pfs.File, backing vm.DiskImage, opts Options, name string) *Image {
	if opts.PushBatch <= 0 || opts.PullBatch <= 0 {
		panic("core: batch sizes must be positive")
	}
	if base.Size < geo.ImageSize {
		panic("core: base image file smaller than image")
	}
	im := &Image{
		eng:     eng,
		cl:      cl,
		geo:     geo,
		base:    base,
		backing: backing,
		opts:    opts,
		name:    name,
		cur:     newSide(node, geo.Chunks()),
	}
	if opts.Preseeded {
		// The node holds a pre-staged base replica: every chunk is local
		// with base content (content ID 0), exactly the state fetchBase
		// would have left behind.
		im.cur.local.AddRange(0, chunk.Idx(geo.Chunks()-1))
	}
	return im
}

// store charges a write of the given range to the backing layer (or plain
// disk time when no backing store is attached).
func (im *Image) store(p *sim.Proc, off, length int64) {
	if im.backing != nil {
		im.backing.Write(p, off, length)
		return
	}
	im.cl.DiskIO(p, im.cur.node, float64(length), flow.TagOther)
}

// load charges a read of the given range from the backing layer.
func (im *Image) load(p *sim.Proc, off, length int64) {
	if im.backing != nil {
		im.backing.Read(p, off, length)
		return
	}
	im.cl.DiskIO(p, im.cur.node, float64(length), flow.TagOther)
}

// Geometry implements vm.DiskImage.
func (im *Image) Geometry() chunk.Geometry { return im.geo }

// Node returns the node currently serving guest I/O.
func (im *Image) Node() *fabric.Node { return im.cur.node }

// Stats returns a copy of the migration statistics.
func (im *Image) Stats() Stats { return im.stats }

// ModifiedCount returns the number of locally modified chunks on the active
// side.
func (im *Image) ModifiedCount() int { return im.cur.modified.Count() }

// ForEachLocalRange calls fn for every maximal run of locally available
// chunks on the active side (byte offsets). The orchestrator uses it to
// warm the destination cache after control transfer.
func (im *Image) ForEachLocalRange(fn func(off, length int64)) {
	im.geo.ForEachRun(im.cur.local, fn)
}

// isDest reports whether guest I/O currently lands on a destination that is
// still pulling from the source.
func (im *Image) isDest() bool { return im.state == stPulling }

// isMigratingSource reports whether this side is a source with an active
// migration (before control transfer).
func (im *Image) isMigratingSource() bool { return im.state == stPushing }

// nextContent mints a content ID for a chunk write. When Dedup is enabled a
// slice of writes lands on a small shared pool, modelling blocks whose
// content recurs (zero pages, common patterns).
func (im *Image) nextContent() uint64 {
	im.seq++
	if im.opts.Dedup && im.seq%4 == 0 {
		return 1 + im.seq%16 // shared pool IDs: low values
	}
	return 16 + im.seq
}

// markKnown records that content id is at the destination. Only dedup
// reads the set, so without Dedup there is none to record into.
func (im *Image) markKnown(id uint64) {
	if im.known != nil {
		im.known[id] = true
	}
}

// Read implements vm.DiskImage (Algorithm 4 generalized to ranges).
func (im *Image) Read(p *sim.Proc, off, length int64) {
	if length <= 0 {
		return
	}
	req := chunk.Range{Off: off, Len: length}
	first, last := im.geo.Span(req)
	for c := first; c <= last; {
		cat, end := im.run(c, last)
		switch cat {
		case catRemaining:
			im.onDemandPull(p, c, end)
		case catBase:
			im.fetchBase(p, c, end)
		}
		part := im.geo.Clip(req, c, end)
		im.load(p, part.Off, part.Len)
		c = end + 1
	}
}

// category classifies a chunk for the active side.
type cat int

const (
	catLocal cat = iota
	catRemaining
	catBase
)

// staleBaseOwed reports that the active side's local copy of c is only the
// preseeded base replica (content ID 0) while the source still owes the
// chunk's modified content: the replica must not mask the pull. Outside
// preseeded runs a destination never holds a content-0 local copy of a
// remaining/in-flight chunk (base fetches and prefetch are restricted to
// chunks the source did not modify), so this is always false there.
func (im *Image) staleBaseOwed(c chunk.Idx) bool {
	return im.isDest() && im.cur.content.At(int(c)) == 0 &&
		(im.remaining.Contains(c) || im.inFlight.Contains(c))
}

func (im *Image) category(c chunk.Idx) cat {
	switch {
	case im.cur.local.Contains(c) && !im.staleBaseOwed(c):
		return catLocal
	case im.isDest() && (im.remaining.Contains(c) || im.inFlight.Contains(c)):
		return catRemaining
	default:
		return catBase
	}
}

// run returns the category of c and the last chunk e in [c, last] such that
// every chunk in [c, e] has that category. Outside a pull the category is
// local membership alone, so the run is the local set's run; a pulling
// destination extends it a chunk at a time, since staleBaseOwed also reads
// remaining, inFlight and content.
func (im *Image) run(c, last chunk.Idx) (cat, chunk.Idx) {
	k := im.category(c)
	if !im.isDest() {
		return k, im.cur.local.RunEnd(c, last)
	}
	end := c
	for end < last && im.category(end+1) == k {
		end++
	}
	return k, end
}

// fetchBase brings chunks [c..end] from the repository and caches them on
// the local disk ("copied locally", Section 4.2).
func (im *Image) fetchBase(p *sim.Proc, c, end chunk.Idx) {
	r1 := im.geo.ChunkRange(c)
	r2 := im.geo.ChunkRange(end)
	length := r2.End() - r1.Off
	im.base.Read(p, im.cur.node, r1.Off, length)
	im.stats.RepoReadBytes += float64(length)
	im.cur.local.AddRange(c, end)
	// Cache the fetched content locally; writeback persists it to disk.
	im.store(p, r1.Off, length)
}

// Write implements vm.DiskImage (Algorithm 2 generalized: partial chunks,
// multi-chunk spans, both roles).
func (im *Image) Write(p *sim.Proc, off, length int64) {
	if length <= 0 {
		return
	}
	im.activeWrites.Add(1)
	defer im.activeWrites.Done(im.eng)

	wr := chunk.Range{Off: off, Len: length}
	first, last := im.geo.Span(wr)
	// Read-modify-write: partially covered chunks need their current
	// content available locally first. Only the end chunks of a write can
	// be partial; every interior chunk is fully covered.
	im.readModify(p, wr, first)
	if last != first {
		im.readModify(p, wr, last)
	}

	side := im.cur
	if im.isDest() {
		// Algorithm 2, destination role: cancel pending pulls.
		im.remaining.RemoveRange(first, last)
	}
	var mirrorFlow *flow.Flow
	epoch := im.migEpoch
	if im.mirrorActive && im.isMigratingSource() {
		// Synchronous mirroring: the write travels to the destination in
		// parallel with the local write and must complete there before we
		// acknowledge (Haselhorst et al.). The flow is pooled as in
		// trackedTransfer.
		mirrorFlow = im.cl.Net.AcquireFlow()
		mirrorFlow.Links, mirrorFlow.Size, mirrorFlow.Tag = im.cl.NetPath(side.node, im.dstNode), float64(length), flow.TagMirror
		im.cl.Net.Start(mirrorFlow)
		im.registerFlow(mirrorFlow)
	}
	// The write lands in the manager's backing store (host-cached file).
	im.store(p, off, length)

	side.local.AddRange(first, last)
	side.modified.AddRange(first, last)
	for c := first; c <= last; c++ {
		id := im.nextContent()
		side.content.Set(int(c), id)
		im.markKnown(id)
	}
	if im.isDest() {
		im.dstFresh.AddRange(first, last)
	}
	if im.isMigratingSource() {
		// Algorithm 2, source role.
		for c := first; c <= last; c++ {
			im.writeCount.Inc(c)
		}
		if !im.mirrorActive {
			im.remaining.AddRange(first, last)
			im.pushCond.Broadcast(im.eng)
		}
	}
	if mirrorFlow != nil {
		mirrorFlow.Wait(p)
		im.unregisterFlow(mirrorFlow)
		im.cl.Net.ReleaseFlow(mirrorFlow)
		if im.migEpoch != epoch {
			return // aborted mid-mirror: the destination copy is gone
		}
		im.stats.MirroredBytes += float64(length)
		// Mirrored content is now identical at the destination.
		im.dst.local.AddRange(first, last)
		im.dst.modified.AddRange(first, last)
		im.dstFresh.AddRange(first, last)
		for c := first; c <= last; c++ {
			im.dst.content.Set(int(c), side.content.At(int(c)))
		}
	}
	im.maybeComplete()
}

// readModify makes chunk c's current content local before a write that
// covers it only partially.
func (im *Image) readModify(p *sim.Proc, wr chunk.Range, c chunk.Idx) {
	if im.geo.FullyCovers(wr, c) || (im.cur.local.Contains(c) && !im.staleBaseOwed(c)) {
		return
	}
	im.stats.RMWStalls++
	if im.isDest() && (im.remaining.Contains(c) || im.inFlight.Contains(c)) {
		im.onDemandPull(p, c, c)
	} else {
		im.fetchBase(p, c, c)
	}
}

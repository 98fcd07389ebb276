// Package flow implements a flow-level network/resource model with max-min
// fair bandwidth sharing.
//
// A Flow is a bulk transfer of a known size that traverses an ordered set of
// capacity Links (e.g. source NIC -> switch fabric -> destination NIC, or a
// single disk link for local I/O). The package keeps a max-min fair rate
// allocation, computed by progressive filling: repeatedly find the most
// constrained link, give every unfrozen flow crossing it an equal share of
// that link's residual capacity, and freeze those flows. Flows may
// additionally carry an individual rate cap (application pacing, hypervisor
// migration speed limits), which is treated as a private link. The
// allocation is recomputed whenever a flow completes or is canceled or a
// capacity changes, and once per virtual instant for all the flows started
// in it: a start defers its refill to a flush that runs before the clock
// leaves the instant, or earlier if anything reads or mutates the net.
//
// This is the standard fluid approximation used by flow-level datacenter
// simulators: it captures who saturates which resource and when, without
// simulating individual packets.
//
// Allocation is incremental and component-scoped: max-min fairness is
// separable across connected components of the link-sharing graph, so a flow
// change only re-runs progressive filling over the flows and links reachable
// from the changed flow. Links that provably cannot saturate (see
// Link.transparent) do not couple their flows, so a non-blocking switch
// fabric never merges otherwise-disjoint migrations into one component.
// Byte accounting is settled lazily per flow (a flow's remaining count is
// integrated only when its rate changes, it completes, or it is queried),
// and completions are tracked in an indexed min-heap so the next completion
// needs no scan. Determinism is preserved: links are filled in
// first-occurrence (breadth-first discovery) order, completion ties break
// on activation order, and callbacks fire in activation-table order,
// exactly as the former global recompute did.
//
// Flows whose sole potentially-binding link is the same bottleneck (and that
// carry no individual cap) are aggregated into a rate group: max-min gives
// every such flow an identical rate, so the group carries one shared rate
// cell and a cumulative progress accumulator, each member records only the
// progress value at which it finishes, and a group-wide rate change is a
// single O(1) anchor advance plus one completion-heap fix for the group's
// earliest-finishing member (its representative) instead of a settle and a
// heap repair per member. This is what keeps churn on a saturated link
// shared by n flows at O(log n) instead of O(n).
package flow

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/hybridmig/hybridmig/internal/sim"
)

// Tag classifies a flow for traffic accounting; the experiment harness
// attributes bytes to migration phases using these.
type Tag uint8

// Traffic tags. TagOther is the zero value.
const (
	TagOther       Tag = iota
	TagMemory          // hypervisor memory pre-copy traffic
	TagStoragePush     // migration manager active push (source -> destination)
	TagStoragePull     // migration manager pull/prefetch (destination <- source)
	TagBlockMig        // hypervisor incremental block migration (precopy baseline)
	TagMirror          // synchronous write mirroring traffic
	TagRepo            // repository (base image) reads
	TagPFS             // parallel file system I/O
	TagApp             // application communication (e.g. CM1 halo exchange)
	TagControl         // small control messages
	TagBackground      // injected cross-tenant background traffic
	numTags
)

// NumTags is the number of defined tags; Tag(0) through Tag(NumTags-1) are
// all valid, so reporters can iterate by index without allocating.
const NumTags = int(numTags)

var tagNames = [numTags]string{
	"other", "memory", "push", "pull", "blockmig", "mirror", "repo", "pfs", "app", "control",
	"background",
}

func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// allTags is the shared backing array for Tags.
var allTags = func() [numTags]Tag {
	var a [numTags]Tag
	for i := range a {
		a[i] = Tag(i)
	}
	return a
}()

// Tags returns all defined tags in order, for iteration by reporters. The
// returned slice is shared and immutable: callers must not modify it.
func Tags() []Tag { return allTags[:] }

// Link is a capacity-constrained resource (a NIC direction, a switch fabric,
// a disk). Bytes flowing through it are accumulated for utilization reports.
type Link struct {
	Name string
	// Capacity is the link rate in bytes per second. It must not be written
	// directly once flows are active; use Net.SetCapacity, which reflows the
	// affected component and keeps the saturability bounds consistent.
	Capacity float64

	// flows holds the active flows crossing this link EXCEPT members of this
	// link's own rate group, which live in group.members instead. A flow is
	// therefore listed on every transparent link it crosses and on every
	// opaque link it crosses loosely.
	flows []*Flow
	group *rateGroup // lazily created, retained while empty for reuse
	bytes float64    // total bytes carried (settled lazily; see Bytes)

	// Saturability bound: ubSum is the sum, over crossing flows, of each
	// flow's provable rate ceiling from its other constraints (cap or other
	// links); ubInf counts flows with no such ceiling. While ubSum stays
	// below capacity the link can never be a bottleneck ("transparent") and
	// does not glue its flows into one recompute component.
	ubSum float64
	ubInf int

	// scratch for rate computation
	frozenRate float64
	unfrozen   int
	mark       uint64 // epoch stamp for component collection
	snapMark   uint64 // epoch stamp for transparency-flip snapshots
}

// ubMarginFactor keeps a strict margin below capacity in the transparency
// test, so float drift in the incrementally maintained ubSum can never
// declare a genuinely saturable link transparent.
const ubMarginFactor = 1 - 1e-9

// transparent reports whether the link provably cannot be a bottleneck:
// even if every crossing flow ran at its ceiling, the link would not
// saturate. Progressive filling can then never pick it as the arg-min, so
// it neither constrains rates nor couples otherwise-disjoint flows. This is
// what makes a non-blocking switch fabric free: flows crossing it interact
// only through their NICs and disks.
func (l *Link) transparent() bool {
	return l.ubInf == 0 && l.ubSum <= l.Capacity*ubMarginFactor
}

// NewLink returns a link with the given name and capacity in bytes/second.
// The capacity must be positive and finite, as for SetCapacity.
func NewLink(name string, capacity float64) *Link {
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		panic(fmt.Sprintf("flow: invalid capacity %v for link %s", capacity, name))
	}
	return &Link{Name: name, Capacity: capacity}
}

// Bytes returns the total number of bytes that have crossed the link.
func (l *Link) Bytes() float64 {
	var n *Net
	if len(l.flows) > 0 {
		n = l.flows[0].net
	} else if l.group != nil && len(l.group.members) > 0 {
		n = l.group.members[0].net
	}
	if n != nil {
		n.flush()
		for _, f := range l.flows {
			n.settle(f, n.lastEvent)
		}
		if g := l.group; g != nil {
			for _, f := range g.members {
				n.settle(f, n.lastEvent)
			}
		}
	}
	return l.bytes
}

// ActiveFlows returns the number of flows currently crossing the link.
func (l *Link) ActiveFlows() int {
	c := len(l.flows)
	if l.group != nil {
		c += len(l.group.members)
	}
	return c
}

// crossingCount and crossingAt iterate every flow crossing the link: the
// loose list plus the link's own group members.
func (l *Link) crossingCount() int { return l.ActiveFlows() }

func (l *Link) crossingAt(i int) *Flow {
	if i < len(l.flows) {
		return l.flows[i]
	}
	return l.group.members[i-len(l.flows)]
}

// addUB / subUB move a flow's saturability contribution onto / off the link;
// list and group membership are managed separately by the caller.
func (l *Link) addUB(f *Flow) {
	if u := f.ubFor(l); math.IsInf(u, 1) {
		l.ubInf++
	} else {
		l.ubSum += u
	}
}

func (l *Link) subUB(f *Flow) {
	if u := f.ubFor(l); math.IsInf(u, 1) {
		l.ubInf--
	} else {
		l.ubSum -= u
	}
}

// listOn appends the flow to the loose list of its k-th link and records
// the slot.
func (f *Flow) listOn(k int) {
	l := f.Links[k]
	f.pos[k] = int32(len(l.flows))
	l.flows = append(l.flows, f)
}

// unlist removes the flow from l's loose list in O(path length): of the
// flow's listings on l it takes the one nearest the front and moves the
// list's last entry into the hole. That is what a scan for the flow
// followed by a swap with the last entry does, and the list order must be
// exactly that one: it is the component collection order and the settle
// order, which fix every float of a fill.
func (f *Flow) unlist(l *Link) {
	if h := f.net.unlistHook; h != nil {
		h(l, f)
	}
	k := -1
	for j, lk := range f.Links {
		if lk == l && f.pos[j] >= 0 && (k < 0 || f.pos[j] < f.pos[k]) {
			k = j
		}
	}
	i := f.pos[k]
	f.pos[k] = -1
	last := int32(len(l.flows) - 1)
	m := l.flows[last]
	l.flows[i] = m
	l.flows[last] = nil
	l.flows = l.flows[:last]
	if i == last {
		return
	}
	for j, lk := range m.Links {
		if lk == l && m.pos[j] == last {
			m.pos[j] = i
			return
		}
	}
}

// maxPathLinks is the longest path a flow may cross: a disk-to-disk stream
// (source disk, NIC out, fabric, NIC in, destination disk).
const maxPathLinks = 5

// Flow is a bulk transfer in progress. Its path holds at most five links;
// Start panics on a longer one, because each listing's slot is kept inline.
type Flow struct {
	Links   []*Link // resources traversed; may be empty for an infinitely fast local transfer
	Size    float64 // total bytes
	MaxRate float64 // per-flow cap in bytes/s; 0 means uncapped
	OnDone  func()  // optional completion callback, runs in engine context
	Tag     Tag

	// The small fields sit together so that a Flow stays in the 240-byte
	// allocation size class (TestFlowSizeClass).
	frozen  bool // scratch for progressive filling
	active  bool
	index   int32 // position in net.flows
	heapIdx int32 // position in net.compHeap, -1 while inactive
	gIdx    int32 // position in group.members, -1 once removed
	// pos[k] is the flow's position in Links[k].flows, or -1 where it is
	// not listed: on its rate group's home link.
	pos [maxPathLinks]int32

	remaining float64
	rate      float64
	doneCond  sim.Cond
	net       *Net

	// incremental-allocation state. Byte integration is anchored at the
	// flow's last rate change: remaining at time t is always computed as
	// anchorRem - rate*(t - anchorT), never by accumulating rate*dt slices.
	// Settles triggered between rate changes (queries, or another
	// component's completion sweep peeking at the heap top) are therefore
	// pure reads — they cannot perturb the value the flow will have at its
	// next rate change, which keeps a component's trajectory bit-identical
	// no matter what unrelated flows share the Net.
	lastSettle sim.Time // when remaining/bytes were last integrated
	anchorT    sim.Time // time of the last rate change
	anchorRem  float64  // remaining bytes at the last rate change
	compT      sim.Time // projected completion time; +Inf while stalled
	seq        uint64   // activation order, tie-break in the completion heap
	mark       uint64   // epoch stamp for component collection
	prevRate   float64  // rate before the current component recompute

	// Rate-group state. A grouped flow's remaining count is finishP minus the
	// group's cumulative progress; its rate is the group's shared rate cell;
	// only the group's earliest-finishing member sits in net.compHeap.
	group   *rateGroup // nil while loose
	finishP float64    // group progress value at which this flow completes

	// Two smallest link capacities on the path (for the saturability bound):
	// the flow's rate ceiling as seen from link l is the smallest capacity
	// among its OTHER links — minCap, or minCap2 when l is the unique
	// smallest — further clamped by MaxRate.
	minCap, minCap2 float64
	minCapLink      *Link
}

// ubFor returns the flow's provable rate ceiling as seen from link l: no
// allocation can ever run the flow faster than its cap or its narrowest
// other link.
func (f *Flow) ubFor(l *Link) float64 {
	c := f.minCap
	if l == f.minCapLink {
		c = f.minCap2
	}
	if f.MaxRate > 0 && f.MaxRate < c {
		c = f.MaxRate
	}
	return c
}

// Remaining returns the bytes left to transfer (settled lazily; accurate
// after any net activity at the current instant).
func (f *Flow) Remaining() float64 {
	if f.active {
		f.net.flush()
		f.net.settle(f, f.net.lastEvent)
	}
	return f.remaining
}

// Rate returns the current allocated rate in bytes/s.
func (f *Flow) Rate() float64 {
	if f.active {
		f.net.flush()
	}
	if f.group != nil {
		return f.group.rate
	}
	return f.rate
}

// Done reports whether the flow has completed or been canceled.
func (f *Flow) Done() bool { return !f.active && f.net != nil }

// Net manages the set of active flows and their fair-share rates.
type Net struct {
	eng   *sim.Engine
	flows []*Flow

	byTag     [numTags]float64
	completed uint64 // count of completed flows
	startSeq  uint64
	lastEvent sim.Time // time of the last flow start/cancel/completion

	// compHeap is an indexed min-heap of active flows ordered by projected
	// completion (compT, seq); its top is the next completion sweep.
	compHeap   []*Flow
	sweepTimer sim.Timer
	sweepFn    func() // cached closure so rescheduling never allocates

	// reusable scratch for component collection and the sweep batch
	epoch      uint64
	compFlows  []*Flow
	compLinks  []*Link
	compGroups []*rateGroup
	ordered    []*Link
	done       []*Flow
	sortBuf    []*Flow // radix scratch of sortDone

	// reusable scratch for transparency-flip handling
	flipped   []*Link
	reclass   []*Flow
	snapEpoch uint64
	snapLinks []*Link
	snapT     []bool

	// free list for AcquireFlow/ReleaseFlow
	free []*Flow

	// Flows started at the current instant whose component fill waits for
	// the instant's flush, in start order; flushTimer is the flush event.
	pending    []*Flow
	flushTimer sim.Timer
	flushFn    func()
	spans      []compSpan // per-component scratch of a flush

	stats Stats

	// unlistHook, when set, sees every removal from a loose list before it
	// happens; tests replay the removals on a scan-and-swap model.
	unlistHook func(l *Link, f *Flow)
	// oneByOne, when set, makes sweeps retire one heap root at a time:
	// tests hold retireDue to that reference.
	oneByOne bool
}

// compSpan delimits one component collected by reflow: its entries start
// at these offsets into compFlows, compLinks and compGroups, it was
// collected under epoch, and starts of the pending starts fell into it.
type compSpan struct {
	flows, links, groups int
	epoch                uint64
	starts               int
}

// Stats are exact work counters of a Net, always on.
type Stats struct {
	Starts    uint64 // flows activated by Start
	Flushes   uint64 // per-instant flushes of deferred starts
	Fills     uint64 // progressive fills over a collected component
	Collected uint64 // loose flows plus rate groups filled, over all fills
	Retired   uint64 // flows retired by completion sweeps
	Rebuilds  uint64 // sweeps that re-heapified the completion heap
}

// NewNet returns a flow network bound to the engine.
func NewNet(eng *sim.Engine) *Net {
	n := &Net{eng: eng}
	n.sweepFn = n.completionSweep
	n.flushFn = n.flush
	return n
}

// Stats returns the net's work counters.
func (n *Net) Stats() Stats { return n.stats }

// Engine returns the simulation engine.
func (n *Net) Engine() *sim.Engine { return n.eng }

// A rateGroup aggregates the active flows whose sole opaque (potentially
// binding) link is this group's link and which carry no per-flow cap. Every
// other link such a flow crosses is provably transparent, so progressive
// filling can only ever bind the whole group at its home link's equal share:
// all members always receive the same rate. The group therefore keeps one
// rate cell plus a cumulative progress accumulator
//
//	P(t) = pAnchor + rate*(t - anchorT)
//
// and each member stores only finishP, the progress value at which it
// drains: remaining(t) = finishP - P(t), a pure read. A group-wide rate
// change advances (pAnchor, anchorT, rate) in O(1); because P is shared,
// members' relative completion order is fixed by finishP alone, so only the
// minimum-finishP member (the representative, members[0]) needs a
// completion-heap entry, and a rate change costs one heap fix regardless of
// group size.
//
// Two invariants make this sound, both consequences of the saturability
// bound: (1) an uncapped active flow's narrowest link is always opaque (its
// ceiling seen from that link is the second-narrowest capacity, which is at
// least the narrowest), so every uncapped flow has at least one opaque link;
// (2) while a group has members, each member's ceiling seen from the home
// link is at least the link's capacity, so ubSum >= capacity and the home
// link cannot be transparent — membership can only end by reclassification
// or departure, never by the home link silently vanishing from the fill.
type rateGroup struct {
	link    *Link
	rate    float64 // shared rate cell, bytes/s
	pAnchor float64 // cumulative progress at anchorT, bytes
	anchorT sim.Time
	members []*Flow // indexed min-heap keyed (finishP, seq)

	// fill scratch
	fillRate float64
	frozen   bool
	mark     uint64 // epoch stamp for component collection
}

// groupRebaseP bounds the magnitude of the progress accumulator: once
// pAnchor exceeds it, member finishP values are rebased toward zero so the
// float resolution of finishP - P stays far below epsBytes over arbitrarily
// long simulations (at 1e12 the absolute error is ~2e-4 bytes).
const groupRebaseP = 1e12

func (g *rateGroup) progressAt(t sim.Time) float64 {
	if g.rate <= 0 || t <= g.anchorT {
		return g.pAnchor
	}
	return g.pAnchor + g.rate*(t-g.anchorT)
}

// timeFor returns the time at which group progress reaches finishP. The
// (finishP - pAnchor) form mirrors the loose-flow projection
// now + remaining/rate bit for bit when the anchor was advanced at the same
// instant.
func (g *rateGroup) timeFor(finishP float64) sim.Time {
	if g.rate <= 0 {
		return math.Inf(1)
	}
	base := finishP - g.pAnchor
	if base < 0 {
		base = 0
	}
	return g.anchorT + base/g.rate
}

// Member heap: an indexed binary min-heap keyed by (finishP, seq); the root
// is the group's representative in the net's completion heap.

func (g *rateGroup) gLess(i, j int) bool {
	a, b := g.members[i], g.members[j]
	if a.finishP != b.finishP {
		return a.finishP < b.finishP
	}
	return a.seq < b.seq
}

func (g *rateGroup) gSwap(i, j int) {
	m := g.members
	m[i], m[j] = m[j], m[i]
	m[i].gIdx = int32(i)
	m[j].gIdx = int32(j)
}

func (g *rateGroup) gUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !g.gLess(i, parent) {
			break
		}
		g.gSwap(i, parent)
		i = parent
	}
}

func (g *rateGroup) gDown(i int) {
	s := len(g.members)
	for {
		l := 2*i + 1
		if l >= s {
			return
		}
		least := l
		if r := l + 1; r < s && g.gLess(r, l) {
			least = r
		}
		if !g.gLess(least, i) {
			return
		}
		g.gSwap(i, least)
		i = least
	}
}

// insertMember adds an active flow to the group, computing its finish
// progress from its settled remaining count, and maintains the
// representative's completion-heap entry. The flow may or may not currently
// hold a heap entry (fresh start vs. reclassified loose flow); either way,
// exactly the group's new representative holds one afterwards.
func (n *Net) insertMember(g *rateGroup, f *Flow) {
	now := n.lastEvent
	if len(g.members) == 0 {
		// Empty group: reset the accumulator so finishP values start small
		// and the single-member case projects bit-identically to a loose
		// flow anchored at now.
		g.pAnchor, g.anchorT, g.rate = 0, now, 0
	}
	f.group = g
	f.finishP = f.remaining + g.progressAt(now)
	f.lastSettle = now
	var oldRep *Flow
	if len(g.members) > 0 {
		oldRep = g.members[0]
	}
	f.gIdx = int32(len(g.members))
	g.members = append(g.members, f)
	g.gUp(int(f.gIdx))
	if g.members[0] == f {
		if oldRep != nil {
			n.heapRemove(oldRep)
		}
		f.compT = g.timeFor(f.finishP)
		if f.heapIdx >= 0 {
			n.heapFix(f)
		} else {
			n.heapPush(f)
		}
	} else if f.heapIdx >= 0 {
		n.heapRemove(f)
	}
}

// remove takes a flow out of the member heap alone.
func (g *rateGroup) remove(f *Flow) {
	i := int(f.gIdx)
	last := len(g.members) - 1
	if i != last {
		g.gSwap(i, last)
	}
	g.members[last] = nil
	g.members = g.members[:last]
	if i != last {
		g.gDown(i)
		g.gUp(i)
	}
	f.gIdx = -1
}

// popMember removes a flow from the group's member heap and, if it was the
// representative, retires its completion-heap entry and promotes the next
// member. f.group is left set so callers can still identify the home link;
// they clear or reuse it.
func (n *Net) popMember(g *rateGroup, f *Flow) {
	wasRep := g.members[0] == f
	g.remove(f)
	if wasRep {
		if f.heapIdx >= 0 {
			n.heapRemove(f)
		}
		if len(g.members) > 0 {
			rep := g.members[0]
			rep.compT = g.timeFor(rep.finishP)
			n.heapPush(rep)
		}
	}
}

// groupLinkFor returns the link a flow would group on — its sole opaque
// link — or nil if the flow must stay loose (a per-flow cap, or more than
// one opaque link).
func (n *Net) groupLinkFor(f *Flow) *Link {
	if f.MaxRate > 0 {
		return nil
	}
	var L *Link
	for _, l := range f.Links {
		if !l.transparent() {
			if L != nil {
				return nil
			}
			L = l
		}
	}
	return L
}

// leaveToLoose converts a grouped flow back to loose allocation: settle its
// bytes through the group, anchor it at the group's current rate, rejoin the
// home link's loose list, and give it its own completion-heap entry.
func (n *Net) leaveToLoose(f *Flow) {
	g := f.group
	n.settle(f, n.lastEvent)
	n.popMember(g, f)
	f.group = nil
	f.rate = g.rate
	f.anchorT = n.lastEvent
	f.anchorRem = f.remaining
	if f.rate > 0 {
		f.compT = n.lastEvent + f.remaining/f.rate
	} else {
		f.compT = math.Inf(1)
	}
	for k, l := range f.Links {
		if l == g.link {
			f.listOn(k)
		}
	}
	n.heapPush(f)
	// If the group was already collected into the component under
	// construction, the expansion pass may have run past its link: enter the
	// now-loose flow (and its links) into the component directly. Outside a
	// collection the marks are stale and the scratch is reset before use, so
	// this is harmless.
	if g.mark == n.epoch {
		n.seedFlow(f)
		n.seedLinks(f.Links)
	}
}

// joinGroup moves a loose active flow into the group of link L (its sole
// opaque link), removing it from L's loose list; it stays listed on its
// transparent links.
func (n *Net) joinGroup(f *Flow, L *Link) {
	n.settle(f, n.lastEvent)
	g := L.group
	if g == nil {
		g = &rateGroup{link: L}
		L.group = g
	}
	f.unlist(L)
	n.insertMember(g, f)
	// Mirror of the leaveToLoose case: if the joining flow was already part
	// of the component under construction, its new group's rate must be
	// refilled too — pull the group and its home link in directly.
	if f.mark == n.epoch && g.mark != n.epoch {
		g.mark = n.epoch
		n.compGroups = append(n.compGroups, g)
	}
	if f.mark == n.epoch {
		n.seedLink(L)
	}
}

// reclassify re-derives one flow's grouping from the current transparency
// pattern of its links and moves it between loose and grouped allocation as
// needed. Idempotent; called for each flow crossing a link whose
// transparency flipped.
func (n *Net) reclassify(f *Flow) {
	L := n.groupLinkFor(f)
	switch {
	case f.group != nil && (L == nil || L != f.group.link):
		n.leaveToLoose(f)
		if L != nil {
			n.joinGroup(f, L)
		}
	case f.group == nil && L != nil:
		n.joinGroup(f, L)
	}
}

// reclassifyCrossing reclassifies every flow crossing a link whose
// transparency just flipped: the loose list, and — when a capacity raise
// flipped a populated home link transparent — the link's own group members,
// each of which now groups elsewhere or goes loose (an uncapped flow's
// narrowest link is always opaque, so they never strand). A snapshot is
// iterated because reclassification mutates the lists.
func (n *Net) reclassifyCrossing(l *Link) {
	n.reclass = append(n.reclass[:0], l.flows...)
	if g := l.group; g != nil {
		n.reclass = append(n.reclass, g.members...)
	}
	for _, f := range n.reclass {
		n.reclassify(f)
	}
}

// snapLink records a link's pre-mutation transparency for flip detection.
func (n *Net) snapLink(l *Link) {
	if l.snapMark == n.snapEpoch {
		return
	}
	l.snapMark = n.snapEpoch
	n.snapLinks = append(n.snapLinks, l)
	n.snapT = append(n.snapT, l.transparent())
}

// BytesByTag returns the total bytes transferred for the tag across all
// links (each flow's bytes are counted once, regardless of path length).
// Counters are accurate as of the last net activity at the current instant.
func (n *Net) BytesByTag(t Tag) float64 {
	n.flush()
	n.settleAll()
	return n.byTag[t]
}

// TotalBytes returns bytes transferred across all tags, accurate as of the
// last net activity at the current instant.
func (n *Net) TotalBytes() float64 {
	n.flush()
	n.settleAll()
	var s float64
	for _, v := range n.byTag {
		s += v
	}
	return s
}

// CompletedFlows returns the number of flows that ran to completion.
func (n *Net) CompletedFlows() uint64 { return n.completed }

// ActiveFlows returns the number of flows currently in progress.
func (n *Net) ActiveFlows() int { return len(n.flows) }

// Start activates a flow. Zero-size flows complete immediately (their OnDone
// fires before Start returns). A flow must not be started twice. The rates
// of the flow's component are refilled by the instant's flush, which every
// read of the net runs first.
func (n *Net) Start(f *Flow) {
	if f.net != nil {
		panic("flow: flow started twice")
	}
	if f.Size < 0 || math.IsNaN(f.Size) || math.IsInf(f.Size, 0) {
		panic(fmt.Sprintf("flow: invalid size %v", f.Size))
	}
	if len(f.Links) > maxPathLinks {
		panic(fmt.Sprintf("flow: path of %d links exceeds %d", len(f.Links), maxPathLinks))
	}
	f.net = n
	f.remaining = f.Size
	if f.Size <= epsBytes {
		n.finish(f)
		return
	}
	if len(f.Links) == 0 && f.MaxRate <= 0 {
		// Infinitely fast: complete instantly.
		n.finish(f)
		return
	}
	f.active = true
	f.lastSettle = n.eng.Now()
	f.anchorT = f.lastSettle
	f.anchorRem = f.remaining
	n.lastEvent = f.lastSettle
	f.compT = math.Inf(1)
	f.heapIdx = -1
	f.seq = n.startSeq
	n.startSeq++
	f.index = int32(len(n.flows))
	n.flows = append(n.flows, f)
	f.minCap, f.minCap2, f.minCapLink = math.Inf(1), math.Inf(1), nil
	for _, l := range f.Links {
		if l.Capacity < f.minCap {
			f.minCap2 = f.minCap
			f.minCap, f.minCapLink = l.Capacity, l
		} else if l.Capacity < f.minCap2 {
			f.minCap2 = l.Capacity
		}
	}
	// Add the flow's saturability contributions; a link may flip opaque,
	// which can strip the sole-opaque-link property from flows grouped
	// elsewhere — reclassify them before placing the new flow.
	n.flipped = n.flipped[:0]
	for _, l := range f.Links {
		wasT := l.transparent()
		l.addUB(f)
		if l.transparent() != wasT {
			n.flipped = append(n.flipped, l)
		}
	}
	for _, l := range n.flipped {
		n.reclassifyCrossing(l)
	}
	f.group, f.gIdx = nil, -1
	if L := n.groupLinkFor(f); L != nil {
		for k, l := range f.Links {
			if l != L {
				f.listOn(k)
			} else {
				f.pos[k] = -1
			}
		}
		g := L.group
		if g == nil {
			g = &rateGroup{link: L}
			L.group = g
		}
		n.insertMember(g, f)
	} else {
		for k := range f.Links {
			f.listOn(k)
		}
		n.heapPush(f)
	}
	n.stats.Starts++
	if len(n.pending) == 0 {
		// The first start at this instant schedules the flush and disarms
		// the sweep until the flush re-arms it: a sweep already armed for
		// this instant would otherwise fire first and retire nearly-drained
		// flows by the epsBytes rule before the new flows slow them down.
		n.sweepTimer.Cancel()
		n.flushTimer = n.eng.At(n.eng.Now(), n.flushFn)
	}
	n.pending = append(n.pending, f)
}

// flush runs the fill deferred by the starts at this instant, if any. The
// flush event calls it before the clock leaves the instant, and so does
// every read of rates or byte counts and every other mutation, so nothing
// observes the allocation between a start and its fill.
func (n *Net) flush() {
	if len(n.pending) > 0 {
		n.reflow()
	}
}

// reflow fills each component that received a start at this instant once,
// bit for bit as the last of those starts would have filled it on its own.
// The pending starts are walked newest first, and each one not yet
// collected seeds its component — as Start used to, so the BFS link order
// and with it every float of the fill are the ones an eager fill at that
// start saw — under a fresh epoch, appended to the scratch. Starts never
// split a component, so no earlier start's fill can survive a later start
// into the same component. The components are then filled one at a time,
// the one with the oldest last start first: a single fill over their union
// would couple them through the freeze tolerance. One start, or one
// component, is the former eager path.
func (n *Net) reflow() {
	n.flushTimer.Cancel()
	n.stats.Flushes++
	n.resetComponent()
	base := n.epoch
	n.spans = n.spans[:0]
	for i := len(n.pending) - 1; i >= 0; i-- {
		f := n.pending[i]
		if startMark(f) >= base {
			continue
		}
		if len(n.spans) > 0 {
			n.epoch++
		}
		sp := compSpan{flows: len(n.compFlows), links: len(n.compLinks), groups: len(n.compGroups), epoch: n.epoch}
		n.spans = append(n.spans, sp)
		n.seed(f)
		n.expandFrom(sp.links)
	}
	// The k-th component was collected under epoch base+k.
	for _, f := range n.pending {
		n.spans[startMark(f)-base].starts++
	}
	nf, nl, ng := len(n.compFlows), len(n.compLinks), len(n.compGroups)
	for k := len(n.spans) - 1; k >= 0; k-- {
		sp := n.spans[k]
		ef, el, eg := nf, nl, ng
		if k+1 < len(n.spans) {
			next := n.spans[k+1]
			ef, el, eg = next.flows, next.links, next.groups
		}
		n.fillPending(n.compFlows[sp.flows:ef], n.compLinks[sp.links:el], n.compGroups[sp.groups:eg], sp)
	}
	clear(n.pending)
	n.pending = n.pending[:0]
	n.reschedule()
}

// seed adds a started flow's component seeds: the flow itself while it is
// loose (a group member is reached through its group), then its links.
func (n *Net) seed(f *Flow) {
	if f.group == nil {
		n.seedFlow(f)
	}
	n.seedLinks(f.Links)
}

// startMark is the stamp that shows a started flow's component collected:
// the flow's own while it is loose, its group's while grouped, since group
// members are collected through their group and stay unmarked.
func startMark(f *Flow) uint64 {
	if g := f.group; g != nil {
		return g.mark
	}
	return f.mark
}

// Cancel removes an active flow before completion and returns the bytes that
// were not transferred. OnDone does not fire for canceled flows. Canceling a
// finished flow returns 0.
func (n *Net) Cancel(f *Flow) float64 {
	if !f.active {
		return 0
	}
	n.flush()
	n.lastEvent = n.eng.Now()
	n.settle(f, n.lastEvent)
	rem := f.remaining
	// Seed before deactivating: a link the departing flow kept opaque may
	// turn transparent once the flow leaves, but the flows it was
	// constraining still need their rates recomputed (and released).
	n.resetComponent()
	n.seedLinks(f.Links)
	n.deactivate(f)
	f.doneCond.Broadcast(n.eng)
	n.expandComponent()
	n.recomputeComponent()
	n.reschedule()
	return rem
}

// SetCapacity changes a link's capacity mid-run (time-varying fabrics:
// degradation, blackout recovery, tenant rate limits) and incrementally
// reflows everyone affected. The component reachable from the link under its
// PRE-change transparency is collected first — a link that turns transparent
// must still release the flows it was constraining — then the capacity and
// every crossing flow's saturability ceilings are updated, the closure is
// re-expanded under the POST-change transparency (a link that turns opaque
// pulls its flows in), and the component is refilled with the completion
// heap rescheduled. Flows whose allocated rate is unchanged keep their lazy
// accounting untouched, exactly as in Start and Cancel.
func (n *Net) SetCapacity(l *Link, c float64) {
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("flow: invalid capacity %v for link %s", c, l.Name))
	}
	if c == l.Capacity {
		return
	}
	n.flush()
	n.lastEvent = n.eng.Now()
	n.resetComponent()
	// Force-seed the link itself: even a currently transparent link must have
	// its flows re-examined, since the new capacity may make it opaque.
	if l.mark != n.epoch {
		l.mark = n.epoch
		n.compLinks = append(n.compLinks, l)
	}
	n.expandComponent()
	// Snapshot the pre-change transparency of every link whose saturability
	// bound the change can move: the link itself plus every link crossed by
	// one of its crossing flows (loose and grouped alike).
	n.snapEpoch++
	n.snapLinks = n.snapLinks[:0]
	n.snapT = n.snapT[:0]
	n.snapLink(l)
	for i, cnt := 0, l.crossingCount(); i < cnt; i++ {
		for _, lk := range l.crossingAt(i).Links {
			n.snapLink(lk)
		}
	}
	l.Capacity = c
	// Every crossing flow's rate ceiling may have changed; re-derive its two
	// smallest path capacities and move its contribution on every link it
	// crosses (which may flip those links' transparency).
	for i, cnt := 0, l.crossingCount(); i < cnt; i++ {
		f := l.crossingAt(i)
		for _, lk := range f.Links {
			lk.subUB(f)
		}
		f.minCap, f.minCap2, f.minCapLink = math.Inf(1), math.Inf(1), nil
		for _, lk := range f.Links {
			if lk.Capacity < f.minCap {
				f.minCap2 = f.minCap
				f.minCap, f.minCapLink = lk.Capacity, lk
			} else if lk.Capacity < f.minCap2 {
				f.minCap2 = lk.Capacity
			}
		}
		for _, lk := range f.Links {
			lk.addUB(f)
		}
	}
	// Reclassify across transparency flips, then re-expand: links that just
	// turned opaque join the component and pull their flows in, and groups
	// that gained or lost members are refilled.
	for i, lk := range n.snapLinks {
		if lk.transparent() != n.snapT[i] {
			n.reclassifyCrossing(lk)
		}
	}
	for _, f := range n.compFlows {
		n.seedLinks(f.Links)
	}
	for _, g := range n.compGroups {
		if len(g.members) > 0 {
			n.seedLink(g.link)
		}
	}
	n.expandComponent()
	n.recomputeComponent()
	n.reschedule()
}

// seedLink adds one link to the component under collection if it is opaque.
func (n *Net) seedLink(l *Link) {
	if l.mark != n.epoch && !l.transparent() {
		l.mark = n.epoch
		n.compLinks = append(n.compLinks, l)
	}
}

// Wait parks the process until the flow completes or is canceled.
func (f *Flow) Wait(p *sim.Proc) {
	for f.net == nil || f.active {
		f.doneCond.Wait(p)
	}
}

// epsBytes is the completion tolerance: flows within this many bytes of done
// are finished, absorbing float round-off.
const epsBytes = 1e-3

// minStep is the smallest schedulable completion delay. Below it, adding
// the delay to the clock can round to no time advance at all (float64 has
// ~2e-16 relative precision), which would loop the completion event forever;
// flows that close to done are simply finished.
const minStep = 1e-9

// settle integrates elapsed time into the flow's remaining count and its
// per-link and per-tag byte counters, at the flow's current rate. For a
// grouped flow the remaining count is read off the group's shared progress
// accumulator — a pure read, like the loose anchored form.
func (n *Net) settle(f *Flow, now sim.Time) {
	if g := f.group; g != nil {
		if now <= f.lastSettle {
			return
		}
		f.lastSettle = now
		base := f.finishP - g.pAnchor
		if base < 0 {
			base = 0
		}
		rem := base
		if g.rate > 0 && now > g.anchorT {
			rem = base - g.rate*(now-g.anchorT)
			if rem < 0 {
				rem = 0
			}
		}
		d := f.remaining - rem
		if d <= 0 {
			return
		}
		f.remaining = rem
		n.byTag[f.Tag] += d
		for _, l := range f.Links {
			l.bytes += d
		}
		return
	}
	n.settleRate(f, now, f.rate)
}

// settleRate is settle with an explicit rate: during a component recompute
// the flow's new rate is already in place, so elapsed time since the last
// settle is charged at the rate that was in effect before the change. The
// remaining count is recomputed from the rate-change anchor, so the result
// at any instant is independent of how many intermediate settles happened.
func (n *Net) settleRate(f *Flow, now sim.Time, rate float64) {
	if now <= f.lastSettle {
		return
	}
	f.lastSettle = now
	if rate <= 0 {
		return
	}
	rem := f.anchorRem - rate*(now-f.anchorT)
	if rem < 0 {
		rem = 0
	}
	d := f.remaining - rem
	if d <= 0 {
		return
	}
	f.remaining = rem
	n.byTag[f.Tag] += d
	for _, l := range f.Links {
		l.bytes += d
	}
}

// settleAll brings every active flow's accounting up to the last net event,
// in activation-table order for determinism. Queries settle to lastEvent
// rather than the clock: rate allocations only change at net events, and the
// pre-incremental model accumulated bytes exactly there, so this keeps query
// results aligned with the original "accurate after any net activity at the
// current instant" contract.
func (n *Net) settleAll() {
	for _, f := range n.flows {
		n.settle(f, n.lastEvent)
	}
}

// deactivate unlinks a flow from the network, its links, its group, and the
// completion heap. The caller settles the flow first. Removing the flow's
// saturability contributions can flip links transparent, which makes some of
// the remaining flows groupable; those are reclassified here, before the
// caller re-expands the component.
func (n *Net) deactivate(f *Flow) {
	f.active = false
	last := len(n.flows) - 1
	n.flows[f.index] = n.flows[last]
	n.flows[f.index].index = f.index
	n.flows[last] = nil
	n.flows = n.flows[:last]
	g := f.group
	if g != nil && f.gIdx >= 0 {
		n.popMember(g, f)
	}
	n.flipped = n.flipped[:0]
	for _, l := range f.Links {
		if g == nil || l != g.link {
			f.unlist(l)
		}
		wasT := l.transparent()
		l.subUB(f)
		if l.ActiveFlows() == 0 {
			l.ubSum = 0 // exact reset: cancels accumulated float drift
		}
		if l.transparent() != wasT {
			n.flipped = append(n.flipped, l)
		}
	}
	f.group = nil
	n.heapRemove(f)
	f.rate = 0
	for _, l := range n.flipped {
		n.reclassifyCrossing(l)
	}
}

// finish marks a flow complete, accounting any remaining round-off sliver,
// and fires callbacks.
func (n *Net) finish(f *Flow) {
	if f.remaining > 0 {
		// Account the final sliver that settle() rounded off.
		n.byTag[f.Tag] += f.remaining
		for _, l := range f.Links {
			l.bytes += f.remaining
		}
		f.remaining = 0
	}
	n.completed++
	f.doneCond.Broadcast(n.eng)
	if f.OnDone != nil {
		f.OnDone()
	}
}

// Component collection: the connected component of links and active flows
// reachable from a seed (a just-started flow, or the link paths of removed
// flows) is gathered into the net's reusable scratch buffers. Epoch stamps
// on links and flows replace a per-call map.

// resetComponent starts a fresh collection epoch.
func (n *Net) resetComponent() {
	n.epoch++
	n.compFlows = n.compFlows[:0]
	n.compLinks = n.compLinks[:0]
	n.compGroups = n.compGroups[:0]
}

// seedFlow adds a flow to the component under collection.
func (n *Net) seedFlow(f *Flow) {
	if f.active && f.mark != n.epoch {
		f.mark = n.epoch
		n.compFlows = append(n.compFlows, f)
	}
}

// seedLinks adds links to the component under collection. Transparent links
// cannot constrain anyone, so they neither join the component nor pull in
// the flows crossing them.
func (n *Net) seedLinks(links []*Link) {
	for _, l := range links {
		if l.mark != n.epoch && !l.transparent() {
			l.mark = n.epoch
			n.compLinks = append(n.compLinks, l)
		}
	}
}

// expandComponent runs the breadth-first closure over the bipartite
// link/flow sharing graph; compLinks doubles as the work queue. Rate groups
// are collected as single units: a member's other links are all transparent,
// so walking into a group's members can never reach new links — the group
// joins compGroups and the members themselves stay out of compFlows.
func (n *Net) expandComponent() { n.expandFrom(0) }

// expandFrom is expandComponent with the work queue starting at compLinks[i].
func (n *Net) expandFrom(i int) {
	for ; i < len(n.compLinks); i++ {
		l := n.compLinks[i]
		if g := l.group; g != nil && len(g.members) > 0 && g.mark != n.epoch {
			g.mark = n.epoch
			n.compGroups = append(n.compGroups, g)
		}
		for _, f := range l.flows {
			if f.mark == n.epoch {
				continue
			}
			if g := f.group; g != nil {
				// Grouped on another link (this one is transparent for it,
				// but may sit on the removal path): pull its group in. The
				// member itself stays unmarked so that if reclassification
				// turns it loose mid-mutation, it can still join compFlows.
				if g.mark != n.epoch {
					g.mark = n.epoch
					n.compGroups = append(n.compGroups, g)
				}
				n.seedLink(g.link)
				continue
			}
			f.mark = n.epoch
			n.compFlows = append(n.compFlows, f)
			for _, lk := range f.Links {
				if lk.mark != n.epoch && !lk.transparent() {
					lk.mark = n.epoch
					n.compLinks = append(n.compLinks, lk)
				}
			}
		}
	}
}

// recomputeComponent performs progressive-filling max-min fair allocation
// over the collected component and applies it in collection order.
func (n *Net) recomputeComponent() {
	if n.fill(n.compFlows, n.compLinks, n.compGroups) {
		n.apply(n.compFlows, n.compGroups)
	}
}

// fillPending fills one component collected by reflow. Byte settles add
// into shared float counters, so their order must be the eager one: when
// the component received two or more of the starts and two or more loose
// flows changed rate, they are settled in BFS order from those starts,
// taken in start order, as the successive eager fills settled them;
// otherwise in collection order, as the last eager fill did.
func (n *Net) fillPending(flows []*Flow, links []*Link, groups []*rateGroup, sp compSpan) {
	if !n.fill(flows, links, groups) {
		return
	}
	changed := 0
	if sp.starts >= 2 {
		for _, f := range flows {
			if f.group == nil && f.rate != f.prevRate {
				changed++
			}
		}
	}
	if changed < 2 {
		n.apply(flows, groups)
		return
	}
	// The order BFS runs after the fill under a fresh epoch, so it needs no
	// per-flow state beyond the stamps; its scratch is dropped afterwards.
	nf, nl, ng := len(n.compFlows), len(n.compLinks), len(n.compGroups)
	n.epoch++
	for _, f := range n.pending {
		if m := startMark(f); m != sp.epoch && m != n.epoch {
			continue
		}
		from := len(n.compLinks)
		n.seed(f)
		n.expandFrom(from)
	}
	n.apply(n.compFlows[nf:], groups)
	n.compFlows, n.compLinks, n.compGroups = n.compFlows[:nf], n.compLinks[:nl], n.compGroups[:ng]
}

// fill computes the max-min fair rates of a collected component into the
// flows' rate and the groups' fillRate, keeping each loose flow's previous
// rate in prevRate, and reports whether there was anything to fill. Links
// are processed in first-occurrence order and flows in (deterministic)
// component-discovery order; the freeze SET per filling round is
// order-independent, so iteration order only re-associates float
// accumulation, never changes the allocation.
func (n *Net) fill(flows []*Flow, links []*Link, groups []*rateGroup) bool {
	// Reset scratch state, remembering pre-fill rates. Flows that were
	// reclassified into a group after collection are filled as part of that
	// group; emptied groups are dead entries.
	anyCapped := false
	units := 0
	for _, f := range flows {
		if f.group != nil {
			continue
		}
		f.prevRate = f.rate
		f.frozen = false
		f.rate = 0
		anyCapped = anyCapped || f.MaxRate > 0
		units++
	}
	for _, g := range groups {
		if len(g.members) == 0 {
			continue
		}
		g.frozen = false
		g.fillRate = 0
		units++
	}
	if units == 0 {
		return false
	}
	n.stats.Fills++
	n.stats.Collected += uint64(units)
	// The involved links, in deterministic first-occurrence order, are the
	// BFS discovery list; only currently-opaque ones participate in the fill
	// (a transparent link can never bind, and on the removal path it may
	// carry flows of other components, which must not be frozen here).
	n.ordered = n.ordered[:0]
	for _, l := range links {
		if !l.transparent() {
			n.ordered = append(n.ordered, l)
			l.frozenRate = 0
			l.unfrozen = len(l.flows)
			if g := l.group; g != nil {
				l.unfrozen += len(g.members)
			}
		}
	}
	remaining := units
	for remaining > 0 {
		// Candidate share: the smallest equal-share across constrained
		// links. Links with no unfrozen flows left are compacted away so
		// later rounds scan only live bottleneck candidates.
		share := math.Inf(1)
		live := n.ordered[:0]
		for _, l := range n.ordered {
			if l.unfrozen == 0 {
				continue
			}
			live = append(live, l)
			s := (l.Capacity - l.frozenRate) / float64(l.unfrozen)
			if s < share {
				share = s
			}
		}
		n.ordered = live
		if math.IsInf(share, 1) {
			// Only cap-limited loose flows remain (no shared links); groups
			// always sit on an opaque link, so none can be left here.
			for _, f := range flows {
				if f.group == nil && !f.frozen {
					f.freezeAt(f.MaxRate)
					remaining--
				}
			}
			break
		}
		if share < 0 {
			share = 0
		}
		if anyCapped {
			// Flows whose individual cap is below the share freeze at their
			// cap first; this releases capacity for the rest. Groups are
			// uncapped by construction and never participate.
			capped := false
			for _, f := range flows {
				if f.group != nil || f.frozen || f.MaxRate <= 0 || f.MaxRate > share {
					continue
				}
				f.freezeAt(f.MaxRate)
				remaining--
				capped = true
			}
			if capped {
				continue
			}
		}
		// Freeze flows on the bottleneck link(s) at the share rate. A whole
		// group freezes in O(1): one multiply charges the home link, one
		// decrement retires the unit.
		for _, l := range n.ordered {
			if l.unfrozen == 0 {
				continue
			}
			s := (l.Capacity - l.frozenRate) / float64(l.unfrozen)
			if s > share+1e-12 {
				continue
			}
			// All unfrozen flows on this link freeze at share.
			for _, f := range l.flows {
				if !f.frozen {
					f.freezeAt(share)
					remaining--
				}
			}
			if g := l.group; g != nil && len(g.members) > 0 && !g.frozen {
				g.frozen = true
				g.fillRate = share
				l.frozenRate += share * float64(len(g.members))
				l.unfrozen -= len(g.members)
				remaining--
			}
		}
	}
	return true
}

// apply installs a filled allocation: for every flow whose rate actually
// changed, it settles elapsed time at the old rate and reprojects the
// completion, in the order of flows; flows whose rate is unchanged keep
// their lazy accounting state untouched (no settle, no heap update).
func (n *Net) apply(flows []*Flow, groups []*rateGroup) {
	// Each key is heap-fixed IMMEDIATELY after it changes: sequential fixes
	// are only sound while at most one key is stale at a time.
	now := n.eng.Now()
	for _, f := range flows {
		if f.group != nil || f.rate == f.prevRate {
			continue
		}
		n.settleRate(f, now, f.prevRate)
		f.anchorT = now
		f.anchorRem = f.remaining
		if f.rate > 0 {
			f.compT = now + f.remaining/f.rate
		} else {
			f.compT = math.Inf(1)
		}
		n.heapFix(f)
	}
	for _, g := range groups {
		if len(g.members) == 0 || g.fillRate == g.rate {
			continue
		}
		// Advance the progress accumulator to now at the old rate, then
		// switch rates: every member's settled state is preserved without
		// touching any member. Only the representative's projection moves.
		g.pAnchor = g.progressAt(now)
		g.anchorT = now
		g.rate = g.fillRate
		if g.pAnchor >= groupRebaseP {
			n.rebaseGroup(g)
		}
		rep := g.members[0]
		rep.compT = g.timeFor(rep.finishP)
		n.heapFix(rep)
	}
}

// rebaseGroup shifts a group's progress origin back to zero, subtracting
// pAnchor from every member's finishP. Uniform shifts can collapse
// nearly-equal keys, so the member heap is re-heapified and a representative
// change is reflected in the completion heap.
func (n *Net) rebaseGroup(g *rateGroup) {
	oldRep := g.members[0]
	for _, m := range g.members {
		m.finishP -= g.pAnchor
	}
	g.pAnchor = 0
	for i := len(g.members)/2 - 1; i >= 0; i-- {
		g.gDown(i)
	}
	if rep := g.members[0]; rep != oldRep {
		n.heapRemove(oldRep)
		rep.compT = g.timeFor(rep.finishP)
		n.heapPush(rep)
	}
}

// freezeAt fixes the flow's rate and charges it to each of its links.
func (f *Flow) freezeAt(rate float64) {
	f.frozen = true
	f.rate = rate
	for _, l := range f.Links {
		l.frozenRate += rate
		l.unfrozen--
	}
}

// reschedule (re)arms the sweep timer for the earliest projected completion.
func (n *Net) reschedule() {
	n.sweepTimer.Cancel()
	if len(n.compHeap) == 0 {
		return
	}
	at := n.compHeap[0].compT
	if math.IsInf(at, 1) {
		return // everything stalled (shouldn't happen with positive capacities)
	}
	if floor := n.eng.Now() + minStep; at < floor {
		at = floor
	}
	n.sweepTimer = n.eng.At(at, n.sweepFn)
}

// completionSweep retires every flow that has drained (or is so close that
// its completion delay would vanish under clock round-off), recomputes the
// affected components, and fires completion callbacks.
func (n *Net) completionSweep() {
	n.flush()
	now := n.eng.Now()
	n.lastEvent = now
	n.done = n.done[:0]
	if !n.oneByOne {
		n.retireDue(now + minStep)
	}
	for len(n.compHeap) > 0 {
		f := n.compHeap[0]
		due := f.compT <= now+minStep
		if !due {
			// The projection says "not yet": settle and re-check against the
			// byte tolerance, which absorbs float round-off near the end.
			n.settle(f, now)
			due = f.remaining <= epsBytes
		}
		if !due {
			break
		}
		if g := f.group; g != nil {
			// Retiring a representative promotes the group's next member
			// into the heap, so co-due members drain in the same batch.
			// f.group stays set for deactivate's list bookkeeping.
			n.popMember(g, f)
		} else {
			n.heapRemove(f)
		}
		n.done = append(n.done, f)
	}
	if len(n.done) > 0 {
		n.stats.Retired += uint64(len(n.done))
		// Finish in activation (seq) order. The flow table's index order is
		// perturbed by swap-removal of unrelated flows, so it is not stable
		// across Nets holding different flow populations; activation order
		// is, which keeps a component's completion callbacks in the same
		// relative order whether it shares the Net with other components
		// (serial kernel) or owns it alone (sharded kernel).
		n.sortDone()
		for _, f := range n.done {
			n.settle(f, now)
		}
		// Seed before deactivating (pre-removal transparency; see Cancel).
		n.resetComponent()
		for _, f := range n.done {
			n.seedLinks(f.Links)
		}
		for _, f := range n.done {
			n.deactivate(f)
		}
		n.expandComponent()
		// Recompute before firing callbacks so callbacks observe a consistent
		// allocation; callbacks may start new flows, which recompute again.
		n.recomputeComponent()
	}
	n.reschedule()
	for _, f := range n.done {
		n.finish(f)
	}
}

// retireDue moves into n.done every flow projected to complete by t, when
// that is cheaper than popping them one root at a time: the k
// completion-heap entries with compT <= t form a subtree at the root, and
// when k·⌈log₂ n⌉ ≥ n it drops them and re-heapifies once in O(n). Below
// that it leaves n.done empty, so the sweep's loop pops them as before.
// After each retired group representative it also takes the members that
// popMember would promote with a compT <= t. Keys (compT, seq) are unique
// and a promoted member never precedes its representative, so these are
// exactly the flows that popping the root while compT <= t retires, and the
// heap left behind holds the same entries under the same keys: the sweep's
// settle-and-epsilon loop goes on from the same root.
func (n *Net) retireDue(t sim.Time) {
	h := n.compHeap
	if len(h) == 0 || h[0].compT > t {
		return
	}
	// Breadth first through the due subtree, with n.done as the queue.
	n.done = append(n.done, h[0])
	for i := 0; i < len(n.done); i++ {
		c := 2*int(n.done[i].heapIdx) + 1
		for j := c; j < c+2 && j < len(h); j++ {
			if h[j].compT <= t {
				n.done = append(n.done, h[j])
			}
		}
	}
	k := len(n.done)
	if k*bits.Len(uint(len(h)-1)) < len(h) {
		n.done = n.done[:0]
		return
	}
	n.stats.Rebuilds++
	for _, f := range n.done[:k] {
		f.heapIdx = -1
		g := f.group
		if g == nil {
			continue
		}
		// f.group stays set for deactivate's list bookkeeping.
		g.remove(f)
		for len(g.members) > 0 {
			m := g.members[0]
			m.compT = g.timeFor(m.finishP)
			if m.compT > t {
				break
			}
			g.remove(m)
			n.done = append(n.done, m)
		}
	}
	kept := h[:0]
	for _, f := range h {
		if f.heapIdx >= 0 {
			kept = append(kept, f)
		}
	}
	clear(h[len(kept):])
	for _, f := range n.done[:k] {
		if g := f.group; g != nil && len(g.members) > 0 {
			kept = append(kept, g.members[0])
		}
	}
	for i, f := range kept {
		f.heapIdx = int32(i)
	}
	n.compHeap = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		n.heapDown(i)
	}
}

// radixMin is the batch length from which sortDone orders by radix: below
// it an insertion sort is cheaper than the radix passes' counter tables
// (on shuffled seqs 20,000 apart, 1.9 µs against 2.1 µs at 48 flows and
// 3.1 µs against 2.1 µs at 64).
const radixMin = 64

// sortDone orders the sweep's batch by activation seq. A long batch takes
// an LSD radix sort on seq - min, linear in its length: a comparison sort
// of a burst's hundreds of flows cost as much as the heap removals the
// batch saves.
func (n *Net) sortDone() {
	d := n.done
	if len(d) < radixMin {
		for i := 1; i < len(d); i++ {
			for j := i; j > 0 && d[j].seq < d[j-1].seq; j-- {
				d[j], d[j-1] = d[j-1], d[j]
			}
		}
		return
	}
	lo, hi := d[0].seq, d[0].seq
	for _, f := range d[1:] {
		lo, hi = min(lo, f.seq), max(hi, f.seq)
	}
	buf := slices.Grow(n.sortBuf[:0], len(d))[:len(d)]
	for shift := 0; shift < bits.Len64(hi-lo); shift += 8 {
		var at [257]int
		for _, f := range d {
			at[(f.seq-lo)>>shift&0xff+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		for _, f := range d {
			b := (f.seq - lo) >> shift & 0xff
			buf[at[b]] = f
			at[b]++
		}
		d, buf = buf, d
	}
	n.done, n.sortBuf = d, buf[:0]
}

// Completion heap: an indexed binary min-heap of active flows keyed by
// (compT, seq), so the next completion is O(1) to find and a rate change
// repositions a flow in O(log n).

func (n *Net) heapLess(i, j int) bool {
	a, b := n.compHeap[i], n.compHeap[j]
	if a.compT != b.compT {
		return a.compT < b.compT
	}
	return a.seq < b.seq
}

func (n *Net) heapSwap(i, j int) {
	h := n.compHeap
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = int32(i)
	h[j].heapIdx = int32(j)
}

func (n *Net) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !n.heapLess(i, parent) {
			break
		}
		n.heapSwap(i, parent)
		i = parent
	}
}

func (n *Net) heapDown(i int) {
	s := len(n.compHeap)
	for {
		l := 2*i + 1
		if l >= s {
			return
		}
		least := l
		if r := l + 1; r < s && n.heapLess(r, l) {
			least = r
		}
		if !n.heapLess(least, i) {
			return
		}
		n.heapSwap(i, least)
		i = least
	}
}

func (n *Net) heapPush(f *Flow) {
	f.heapIdx = int32(len(n.compHeap))
	n.compHeap = append(n.compHeap, f)
	n.heapUp(int(f.heapIdx))
}

func (n *Net) heapFix(f *Flow) {
	n.heapDown(int(f.heapIdx))
	n.heapUp(int(f.heapIdx))
}

func (n *Net) heapRemove(f *Flow) {
	i := int(f.heapIdx)
	if i < 0 {
		return
	}
	last := len(n.compHeap) - 1
	if i != last {
		n.heapSwap(i, last)
	}
	n.compHeap[last] = nil
	n.compHeap = n.compHeap[:last]
	if i != last {
		n.heapDown(i)
		n.heapUp(i)
	}
	f.heapIdx = -1
}

// AcquireFlow returns a zeroed Flow from the net's free list, or a new one
// if the list is empty. Pair with ReleaseFlow to run construct-and-forget
// transfers without a per-flow allocation.
func (n *Net) AcquireFlow() *Flow {
	if k := len(n.free); k > 0 {
		f := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return f
	}
	return &Flow{}
}

// ReleaseFlow returns a finished (or never-started) flow to the net's free
// list for reuse by AcquireFlow. The caller must hold the only remaining
// reference: every Wait has returned and nothing will query the flow again.
// Releasing an active flow panics.
func (n *Net) ReleaseFlow(f *Flow) {
	if f.active {
		panic("flow: ReleaseFlow on an active flow")
	}
	*f = Flow{}
	n.free = append(n.free, f)
}

// Transfer runs a blocking transfer of size bytes across links and returns
// when it completes. The flow object is pooled: the blocking shape guarantees
// no reference outlives the call.
func (n *Net) Transfer(p *sim.Proc, links []*Link, size float64, tag Tag) {
	f := n.AcquireFlow()
	f.Links, f.Size, f.Tag = links, size, tag
	n.Start(f)
	f.Wait(p)
	n.ReleaseFlow(f)
}

// Package vm models a virtual machine instance: its RAM with dirty-page
// tracking (what pre-copy memory migration operates on), pause/resume
// semantics (downtime), and the attachment point for a virtual disk image.
//
// RAM is tracked at page-group granularity. Workloads register Dirtiers —
// analytic sources that dirty a working-set region at a byte rate while
// active — and the guest page cache marks the memory backing cached file
// data explicitly. The hypervisor snapshots and clears the dirty set once
// per pre-copy round, which is exactly the information QEMU's dirty-page
// log provides.
package vm

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// DiskImage is the virtual disk seen by the guest. Implementations trap
// reads and writes (the migration manager of package core, the shared-PFS
// image, the hypervisor-managed copy-on-write image of the precopy
// baseline) and charge the corresponding resource time.
type DiskImage interface {
	// Read makes [off, off+length) available to the guest, blocking for
	// disk/network time as needed.
	Read(p *sim.Proc, off, length int64)
	// Write stores [off, off+length), blocking for resource time.
	Write(p *sim.Proc, off, length int64)
	// Sync flushes and, during a migration, hands storage I/O control to
	// the destination (the hypervisor calls it right before transferring
	// control, as the paper's implementation intercepts the sync syscall).
	Sync(p *sim.Proc)
	// Geometry exposes the image chunking.
	Geometry() chunk.Geometry
}

// Region is a contiguous range of memory page groups.
type Region struct {
	First, Last chunk.Idx // inclusive
}

// Groups returns the number of page groups in the region.
func (r Region) Groups() int { return int(r.Last-r.First) + 1 }

// Memory is guest RAM with dirty tracking.
type Memory struct {
	Size      int64
	PageSize  int64
	groups    int
	nonZero   *chunk.Set
	dirty     *chunk.Set
	dirtiers  []*Dirtier
	allocNext chunk.Idx
	paused    bool
}

// NewMemory returns RAM of the given size tracked at pageSize granularity.
func NewMemory(size, pageSize int64) *Memory {
	if size <= 0 || pageSize <= 0 || pageSize > size {
		panic(fmt.Sprintf("vm: invalid memory geometry %d/%d", size, pageSize))
	}
	g := int((size + pageSize - 1) / pageSize)
	return &Memory{
		Size:     size,
		PageSize: pageSize,
		groups:   g,
		nonZero:  chunk.NewSet(g),
		dirty:    chunk.NewSet(g),
	}
}

// Alloc reserves a region of the given byte size from the sequential
// allocator (used to lay out OS footprint, page cache, and app working
// sets). The region is marked non-zero immediately if touch is true.
func (m *Memory) Alloc(bytes int64, touch bool) Region {
	n := chunk.Idx((bytes + m.PageSize - 1) / m.PageSize)
	if int(m.allocNext+n) > m.groups {
		panic(fmt.Sprintf("vm: memory allocator exhausted (%d groups requested, %d free)",
			n, m.groups-int(m.allocNext)))
	}
	r := Region{First: m.allocNext, Last: m.allocNext + n - 1}
	m.allocNext += n
	if touch {
		m.nonZero.AddRange(r.First, r.Last) // a no-op for a zero-byte region
	}
	return r
}

// DirtySeq marks ceil(bytes/PageSize) groups dirty starting at cursor inside
// region, wrapping cyclically, and returns the advanced cursor. It models a
// writer moving through its working set. Marked pages become non-zero. The
// count is capped at the region's span, so the cursor wraps at most once and
// the memory is marked as at most two runs.
func (m *Memory) DirtySeq(r Region, bytes int64, cursor chunk.Idx) chunk.Idx {
	if m.paused || bytes <= 0 {
		return cursor
	}
	n := min((bytes+m.PageSize-1)/m.PageSize, int64(r.Groups()))
	if cursor < r.First || cursor > r.Last {
		cursor = r.First
	}
	if last := m.markWrapped(r, cursor, chunk.Idx(n)); last != r.Last {
		return last + 1
	}
	return r.First
}

// DirtyMapped marks the memory backing a file-cache byte range dirty using
// a fixed modular mapping from cache offsets to groups within region:
// rewriting the same file bytes re-dirties the same memory, which is what
// lets pre-copy converge when a workload loops over one file. Cache group g
// maps to r.First + g%span, so the memory is marked as at most two runs.
func (m *Memory) DirtyMapped(r Region, off, length int64) {
	if m.paused || length <= 0 {
		return
	}
	span := chunk.Idx(r.Groups())
	first := chunk.Idx(off / m.PageSize)
	n := chunk.Idx((off+length-1)/m.PageSize) - first + 1
	m.markWrapped(r, r.First+first%span, min(n, span))
}

// markWrapped marks n groups of region r, at most its span, starting at
// group from and wrapping past r.Last to r.First: at most two runs. It
// returns the last group marked.
func (m *Memory) markWrapped(r Region, from, n chunk.Idx) chunk.Idx {
	last := from + n - 1
	if last <= r.Last {
		m.mark(from, last)
		return last
	}
	m.mark(from, r.Last)
	last -= chunk.Idx(r.Groups())
	m.mark(r.First, last)
	return last
}

// mark dirties groups [first, last] and makes them non-zero; an interval
// with last < first marks nothing.
func (m *Memory) mark(first, last chunk.Idx) {
	m.dirty.AddRange(first, last)
	m.nonZero.AddRange(first, last)
}

// NonZeroBytes returns the bytes the hypervisor must move in the first
// pre-copy round (zero pages are elided, as QEMU's is_dup_page does).
func (m *Memory) NonZeroBytes() int64 {
	return int64(m.nonZero.Count()) * m.PageSize
}

// DirtyBytes returns the bytes currently marked dirty, settling dirtiers
// first.
func (m *Memory) DirtyBytes(now sim.Time) int64 {
	m.Settle(now)
	return int64(m.dirty.Count()) * m.PageSize
}

// CollectDirty settles all dirtiers, returns the dirty byte count, and
// clears the dirty set — one pre-copy round's worth of work.
func (m *Memory) CollectDirty(now sim.Time) int64 {
	m.Settle(now)
	b := int64(m.dirty.Count()) * m.PageSize
	m.dirty.Clear()
	return b
}

// Settle advances every dirtier to the given time.
func (m *Memory) Settle(now sim.Time) {
	for _, d := range m.dirtiers {
		d.settle(now)
	}
}

// setPaused freezes (true) or thaws (false) dirtying; thawing resets
// dirtier clocks so paused wall time contributes nothing.
func (m *Memory) setPaused(paused bool, now sim.Time) {
	if !paused {
		for _, d := range m.dirtiers {
			d.last = now
		}
	}
	m.paused = paused
}

// Dirtier dirties a region at Rate bytes/s while active.
type Dirtier struct {
	m      *Memory
	reg    Region
	rate   float64
	active bool
	last   sim.Time
	cursor chunk.Idx
	carry  float64
}

// NewDirtier registers an inactive dirtier over the region.
func (m *Memory) NewDirtier(reg Region, rate float64) *Dirtier {
	d := &Dirtier{m: m, reg: reg, rate: rate, cursor: reg.First}
	m.dirtiers = append(m.dirtiers, d)
	return d
}

// SetActive starts or stops the dirtier at time now.
func (d *Dirtier) SetActive(active bool, now sim.Time) {
	d.settle(now)
	d.active = active
	d.last = now
}

// settle applies elapsed dirtying to the memory bitmap.
func (d *Dirtier) settle(now sim.Time) {
	dt := now - d.last
	d.last = now
	if !d.active || d.rate <= 0 || dt <= 0 || d.m.paused {
		return
	}
	d.carry += d.rate * dt
	whole := int64(d.carry)
	if whole <= 0 {
		return
	}
	d.carry -= float64(whole)
	d.cursor = d.m.DirtySeq(d.reg, whole, d.cursor)
}

// VM is one virtual machine instance.
type VM struct {
	Eng   *sim.Engine
	Name  string
	Node  *fabric.Node // current host; changes when control transfers
	Mem   *Memory
	Image DiskImage

	paused      bool
	pauseStart  sim.Time
	totalPaused float64
	pauseCond   sim.Cond
	downtimes   int
	steal       float64 // fraction of guest CPU consumed by host-side migration work
}

// New creates a VM on the given host node.
func New(eng *sim.Engine, name string, node *fabric.Node, mem *Memory) *VM {
	return &VM{Eng: eng, Name: name, Node: node, Mem: mem}
}

// Paused reports whether the VM is currently paused.
func (v *VM) Paused() bool { return v.paused }

// TotalDowntime returns the accumulated paused wall time in seconds.
func (v *VM) TotalDowntime() float64 {
	t := v.totalPaused
	if v.paused {
		t += v.Eng.Now() - v.pauseStart
	}
	return t
}

// Downtimes returns how many times the VM has been paused.
func (v *VM) Downtimes() int { return v.downtimes }

// Pause stops guest execution (stop-and-copy). Dirtying freezes.
func (v *VM) Pause() {
	if v.paused {
		return
	}
	v.Mem.Settle(v.Eng.Now())
	v.Mem.setPaused(true, v.Eng.Now())
	v.paused = true
	v.pauseStart = v.Eng.Now()
	v.downtimes++
}

// Resume restarts guest execution.
func (v *VM) Resume() {
	if !v.paused {
		return
	}
	v.totalPaused += v.Eng.Now() - v.pauseStart
	v.paused = false
	v.Mem.setPaused(false, v.Eng.Now())
	v.pauseCond.Broadcast(v.Eng)
}

// MoveTo rehomes the VM onto a new node (control transfer). The caller is
// responsible for pausing around the move.
func (v *VM) MoveTo(node *fabric.Node) { v.Node = node }

// CheckPause parks the calling guest process while the VM is paused.
func (v *VM) CheckPause(p *sim.Proc) {
	for v.paused {
		v.pauseCond.Wait(p)
	}
}

// SetCPUSteal sets the fraction (0..0.9) of guest CPU consumed by host-side
// migration activity (the migration thread and the storage manager's
// transfer work). The paper's "impact on application performance" metric is
// driven by this resource consumption plus downtime and I/O stalls.
func (v *VM) SetCPUSteal(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 0.9 {
		f = 0.9
	}
	v.steal = f
}

// stealQuantum bounds how much CPU time Exec consumes per slice so steal
// changes apply with sub-second resolution even to long compute phases.
const stealQuantum = 1.0

// Exec consumes d seconds of guest CPU time, stretching transparently over
// any pauses that occur meanwhile (the guest makes no progress while
// paused) and over CPU steal by migration activity.
func (v *VM) Exec(p *sim.Proc, d float64) {
	for d > 0 {
		v.CheckPause(p)
		slice := d
		if slice > stealQuantum {
			slice = stealQuantum
		}
		before := v.TotalDowntime()
		p.Sleep(slice / (1 - v.steal))
		d -= slice
		d += v.TotalDowntime() - before // re-run compute lost to a pause
	}
}

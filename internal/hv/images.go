package hv

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/pfs"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// COWImage is the precopy baseline's disk image: a qcow2-style copy-on-write
// snapshot on the local disk backed by a base image on the parallel file
// system (Section 5.2.2 case 1). The hypervisor migrates the snapshot with
// incremental block migration via the BlockMigrator interface.
type COWImage struct {
	cl      *fabric.Cluster
	node    *fabric.Node
	geo     chunk.Geometry
	base    *pfs.File
	backing vm.DiskImage // host-cached local qcow2 file (nil = raw disk time)

	local    *chunk.Set // chunks allocated in the COW snapshot
	tracking bool       // block-dirty log armed (during migration)
	dirty    *chunk.Set // blocks dirtied since last collection

	// Stats.
	BaseReadBytes  float64
	LocalReadBytes float64
	WriteBytes     float64
	RMWFetches     int
}

var _ vm.DiskImage = (*COWImage)(nil)
var _ BlockMigrator = (*COWImage)(nil)

// NewCOWImage creates the image on node with the given base file. backing,
// when non-nil, is the host-cached local file below the qcow2 layer.
func NewCOWImage(cl *fabric.Cluster, node *fabric.Node, geo chunk.Geometry, base *pfs.File, backing vm.DiskImage) *COWImage {
	if base == nil {
		panic("hv: COW image needs a base file")
	}
	return &COWImage{
		cl:      cl,
		node:    node,
		geo:     geo,
		base:    base,
		backing: backing,
		local:   chunk.NewSet(geo.Chunks()),
		dirty:   chunk.NewSet(geo.Chunks()),
	}
}

// store charges a write to the local qcow2 file.
func (im *COWImage) store(p *sim.Proc, off, length int64) {
	if im.backing != nil {
		im.backing.Write(p, off, length)
		return
	}
	im.cl.DiskIO(p, im.node, float64(length), flow.TagOther)
}

// loadLocal charges a read from the local qcow2 file.
func (im *COWImage) loadLocal(p *sim.Proc, off, length int64) {
	if im.backing != nil {
		im.backing.Read(p, off, length)
		return
	}
	im.cl.DiskIO(p, im.node, float64(length), flow.TagOther)
}

// Node returns the node currently hosting the snapshot.
func (im *COWImage) Node() *fabric.Node { return im.node }

// Geometry implements vm.DiskImage.
func (im *COWImage) Geometry() chunk.Geometry { return im.geo }

// LocalSet returns the allocated-chunk set (tests).
func (im *COWImage) LocalSet() *chunk.Set { return im.local }

// ForEachLocalRange calls fn for every maximal run of allocated chunks
// (byte offsets).
func (im *COWImage) ForEachLocalRange(fn func(off, length int64)) {
	im.geo.ForEachRun(im.local, fn)
}

// Read implements vm.DiskImage: allocated chunks come from the local disk,
// unallocated ones from the base file on the parallel FS (no copy-on-read,
// matching qcow2).
func (im *COWImage) Read(p *sim.Proc, off, length int64) {
	if length <= 0 {
		return
	}
	req := chunk.Range{Off: off, Len: length}
	first, last := im.geo.Span(req)
	for c := first; c <= last; {
		inLocal := im.local.Contains(c)
		end := im.local.RunEnd(c, last)
		part := im.geo.Clip(req, c, end)
		if inLocal {
			im.loadLocal(p, part.Off, part.Len)
			im.LocalReadBytes += float64(part.Len)
		} else {
			im.readBase(p, c, end, float64(part.Len))
		}
		c = end + 1
	}
}

// readBase fetches [c..end] from the base file over the PFS.
func (im *COWImage) readBase(p *sim.Proc, c, end chunk.Idx, bytes float64) {
	r1 := im.geo.ChunkRange(c)
	r2 := im.geo.ChunkRange(end)
	im.base.Read(p, im.node, r1.Off, r2.End()-r1.Off)
	im.BaseReadBytes += bytes
}

// Write implements vm.DiskImage: copy-on-write at chunk granularity.
// Partially covered unallocated chunks fetch the base cluster first.
func (im *COWImage) Write(p *sim.Proc, off, length int64) {
	if length <= 0 {
		return
	}
	wr := chunk.Range{Off: off, Len: length}
	first, last := im.geo.Span(wr)
	// Only the end chunks of a write can be partial.
	im.readModify(p, wr, first)
	if last != first {
		im.readModify(p, wr, last)
	}
	im.store(p, off, length)
	im.WriteBytes += float64(length)
	im.local.AddRange(first, last)
	if im.tracking {
		im.dirty.AddRange(first, last)
	}
}

// readModify fetches the backing cluster of chunk c when the write covers
// c only partially and the snapshot has not allocated it yet.
func (im *COWImage) readModify(p *sim.Proc, wr chunk.Range, c chunk.Idx) {
	if im.local.Contains(c) || im.geo.FullyCovers(wr, c) {
		return
	}
	// COW read-modify-write of the backing cluster.
	cr := im.geo.ChunkRange(c)
	im.base.Read(p, im.node, cr.Off, cr.Len)
	im.RMWFetches++
}

// Sync implements vm.DiskImage: flush the local qcow2 file (bdrv_flush).
func (im *COWImage) Sync(p *sim.Proc) {
	if im.backing != nil {
		im.backing.Sync(p)
	}
}

// BulkBytes implements BlockMigrator: the bulk phase covers every allocated
// chunk; dirty tracking arms here.
func (im *COWImage) BulkBytes() int64 {
	im.tracking = true
	im.dirty.Clear()
	var b int64
	im.local.ForEach(func(c chunk.Idx) bool {
		b += im.geo.ChunkLen(c)
		return true
	})
	return b
}

// CollectDirtyBytes implements BlockMigrator.
func (im *COWImage) CollectDirtyBytes() int64 {
	var b int64
	im.dirty.ForEach(func(c chunk.Idx) bool {
		b += im.geo.ChunkLen(c)
		return true
	})
	im.dirty.Clear()
	return b
}

// MoveTo rehomes the snapshot after control transfer: by the end of block
// migration every allocated chunk has been re-created on the destination.
func (im *COWImage) MoveTo(node *fabric.Node) {
	im.node = node
	im.tracking = false
}

// FinishBlockMigration implements BlockMigrator.
func (im *COWImage) FinishBlockMigration() { im.tracking = false }

// WriteGuard authorizes writes to a shared volume. AuthorizeWrite is asked
// before every snapshot write with the issuing node; returning false blocks
// the write (a fenced holder's I/O). Implementations that detect an
// unauthorized-but-unfenced writer record the violation themselves and
// return true — the corruption happens and is detected, not hidden.
type WriteGuard interface {
	AuthorizeWrite(node int) bool
}

// SharedImage is the pvfs-shared baseline's disk: the base image and the
// copy-on-write snapshot both live on the parallel file system, so source
// and destination are always synchronized and migration moves memory only —
// but every guest I/O crosses the network (Section 5.2.3).
type SharedImage struct {
	cl   *fabric.Cluster
	node *fabric.Node // VM location (for network paths)
	geo  chunk.Geometry
	base *pfs.File
	snap *pfs.File

	written *chunk.Set // chunks present in the snapshot

	// Guard, when non-nil, gates every write through the attachment
	// manager's lease check (nil preserves the unguarded baseline exactly).
	Guard WriteGuard

	ReadBytes  float64
	WriteBytes float64
	// FencedWriteBytes counts write traffic blocked by the guard (a fenced
	// holder's I/O never reaches the volume).
	FencedWriteBytes float64
}

var _ vm.DiskImage = (*SharedImage)(nil)

// NewSharedImage creates the image; snap must be a PFS file of image size.
func NewSharedImage(cl *fabric.Cluster, node *fabric.Node, geo chunk.Geometry, base, snap *pfs.File) *SharedImage {
	if snap.Size < geo.ImageSize {
		panic(fmt.Sprintf("hv: snapshot file too small (%d < %d)", snap.Size, geo.ImageSize))
	}
	return &SharedImage{
		cl:      cl,
		node:    node,
		geo:     geo,
		base:    base,
		snap:    snap,
		written: chunk.NewSet(geo.Chunks()),
	}
}

// Node returns the VM's current location.
func (im *SharedImage) Node() *fabric.Node { return im.node }

// MoveTo rehomes the client side (the data never moves — it is shared).
func (im *SharedImage) MoveTo(node *fabric.Node) { im.node = node }

// Geometry implements vm.DiskImage.
func (im *SharedImage) Geometry() chunk.Geometry { return im.geo }

// Read implements vm.DiskImage: written chunks come from the snapshot file,
// untouched ones from the base file — all over the PFS.
func (im *SharedImage) Read(p *sim.Proc, off, length int64) {
	if length <= 0 {
		return
	}
	req := chunk.Range{Off: off, Len: length}
	first, last := im.geo.Span(req)
	for c := first; c <= last; {
		inSnap := im.written.Contains(c)
		end := im.written.RunEnd(c, last)
		part := im.geo.Clip(req, c, end)
		src := im.base
		if inSnap {
			src = im.snap
		}
		src.Read(p, im.node, part.Off, part.Len)
		im.ReadBytes += float64(part.Len)
		c = end + 1
	}
}

// Write implements vm.DiskImage: all writes go to the snapshot on the PFS.
func (im *SharedImage) Write(p *sim.Proc, off, length int64) {
	im.writeFrom(p, im.node, off, length)
}

// WriteFrom issues a write from an explicit node — the path a recovery
// writer takes when a failover activates the volume on a node other than
// the VM's current location (the split-brain demonstrator).
func (im *SharedImage) WriteFrom(p *sim.Proc, node *fabric.Node, off, length int64) {
	im.writeFrom(p, node, off, length)
}

func (im *SharedImage) writeFrom(p *sim.Proc, node *fabric.Node, off, length int64) {
	if length <= 0 {
		return
	}
	if im.Guard != nil && !im.Guard.AuthorizeWrite(node.ID) {
		im.FencedWriteBytes += float64(length)
		return
	}
	im.snap.Write(p, node, off, length)
	im.WriteBytes += float64(length)
	first, last := im.geo.Span(chunk.Range{Off: off, Len: length})
	im.written.AddRange(first, last)
}

// Sync implements vm.DiskImage: the PFS is already coherent.
func (im *SharedImage) Sync(p *sim.Proc) {}

// Package guest models the I/O stack between a workload inside a VM and its
// virtual disk image: a buffered cache layer with dirty throttling and
// background writeback (the backing store of the migration manager), a raw
// physical disk at the bottom, and a journaling filesystem that maps file
// I/O onto virtual-disk offsets.
//
// The stack mirrors the paper's deployment: guest writes reach the
// FUSE-based migration manager synchronously (FUSE was write-through), and
// the manager's backing file is what the host page cache absorbs. So the
// manager interposes at guest-write granularity while its backing store
// behaves like a cached local file:
//
//	workload -> FS -> manager (package core / hv) -> Cache -> raw disk
//
// The cache layer stands for the combined guest+host page-cache path that
// makes the paper's no-migration IOR maxima possible (reads of resident data
// at ~1 GB/s, buffered writes absorbed at ~266 MB/s against a 55 MB/s disk),
// with writeback continuously draining to the image. Approaches backed by
// local storage run with the cache enabled; the pvfs-shared baseline runs in
// passthrough mode, reflecting that shared-storage live migration mandates
// cache=none and that PVFS does no client-side caching — which is exactly
// why the paper measures its throughput at a few percent of the local case.
//
// The filesystem contributes the paper's "hot chunk" behaviour: every
// MetadataEvery bytes of data, a journal commit and an inode-table update
// rewrite a small set of chunks, which therefore accumulate write counts far
// above the Threshold — precisely the chunks the hybrid strategy stops
// pushing and the prioritized prefetcher pulls first.
//
// For buffered workloads, writes also dirty the VM's memory (the guest's own
// page-cache copy lives in guest RAM), which is what couples heavy buffered
// I/O to memory pre-copy convergence.
package guest

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// Guest bundles the I/O stack for one VM.
type Guest struct {
	VM *vm.VM
	P  params.Guest
	// Buffered marks workloads whose writes transit the guest page cache
	// and therefore dirty guest memory.
	Buffered bool
	Cache    *Cache
	FS       *FS
}

// Options configures the I/O stack assembly.
type Options struct {
	// HostCache false puts the cache in passthrough mode (cache=none
	// semantics, mandatory for the pvfs-shared baseline).
	HostCache bool
	// Buffered controls guest-memory dirtying by writes (the guest's own
	// page-cache copy); storage benchmarks running O_DIRECT set it false.
	Buffered bool
	// Inner is the backing device below the cache, typically a RawDisk on
	// the VM's current node.
	Inner vm.DiskImage
	// MakeImage builds the manager layer on top of the cache (its backing
	// store); nil attaches the cache itself as the VM's image.
	MakeImage func(backing vm.DiskImage) vm.DiskImage
}

// New assembles the I/O stack and attaches the top image to the VM.
func New(eng *sim.Engine, v *vm.VM, p params.Guest, opts Options) *Guest {
	if opts.Inner == nil {
		panic("guest: Options.Inner is required")
	}
	g := &Guest{VM: v, P: p, Buffered: opts.Buffered}
	g.Cache = newCache(eng, g, opts.Inner, opts.HostCache)
	if opts.MakeImage != nil {
		v.Image = opts.MakeImage(g.Cache)
	} else {
		v.Image = g.Cache
	}
	g.FS = newFS(g)
	return g
}

// RawDisk is the physical local disk below the cache: reads and writes pay
// disk time on whichever node currently hosts the VM.
type RawDisk struct {
	Cl   *fabric.Cluster
	Node func() *fabric.Node
	Geo  chunk.Geometry
}

var _ vm.DiskImage = (*RawDisk)(nil)

// Read implements vm.DiskImage.
func (d *RawDisk) Read(p *sim.Proc, off, length int64) {
	d.Cl.DiskIO(p, d.Node(), float64(length), flow.TagOther)
}

// Write implements vm.DiskImage.
func (d *RawDisk) Write(p *sim.Proc, off, length int64) {
	d.Cl.DiskIO(p, d.Node(), float64(length), flow.TagOther)
}

// Sync implements vm.DiskImage (the platter is always durable here).
func (d *RawDisk) Sync(p *sim.Proc) {}

// Geometry implements vm.DiskImage.
func (d *RawDisk) Geometry() chunk.Geometry { return d.Geo }

// Cache is the buffered I/O layer at cache-page granularity over the image's
// address space. It implements vm.DiskImage so it can interpose on the VM's
// image. In passthrough mode it forwards everything to the inner image.
type Cache struct {
	eng   *sim.Engine
	g     *Guest
	inner vm.DiskImage
	on    bool // false = passthrough (cache=none semantics)

	pageSize int64
	pageDiv  chunk.Divisor // divides offsets by pageSize
	pages    int
	cached   *chunk.Set // pages whose content is resident
	dirty    *chunk.Set // pages not yet written back
	memReg   vm.Region  // guest RAM standing in for cached file data

	throttle  sim.Cond // writers blocked on the dirty limit
	wbKick    sim.Cond // wakes the writeback worker
	idle      sim.Cond // broadcast when dirty drains to zero
	wbFlights int      // writeback batches in flight

	// Stats.
	HitBytes       float64
	MissBytes      float64
	AbsorbedBytes  float64
	WritebackBytes float64
}

var _ vm.DiskImage = (*Cache)(nil)

func newCache(eng *sim.Engine, g *Guest, inner vm.DiskImage, on bool) *Cache {
	geo := inner.Geometry()
	ps := g.P.CachePage
	if ps <= 0 {
		panic("guest: CachePage must be positive")
	}
	n := int((geo.ImageSize + ps - 1) / ps)
	region := g.P.CacheRegion
	if region > g.VM.Mem.Size/2 {
		region = g.VM.Mem.Size / 2
	}
	c := &Cache{
		eng:      eng,
		g:        g,
		inner:    inner,
		on:       on,
		pageSize: ps,
		pageDiv:  chunk.NewDivisor(ps),
		pages:    n,
		cached:   chunk.NewSet(n),
		dirty:    chunk.NewSet(n),
		memReg:   g.VM.Mem.Alloc(region, false),
	}
	if on {
		eng.Go(fmt.Sprintf("%s/writeback", g.VM.Name), c.writebackLoop)
	}
	return c
}

// Geometry implements vm.DiskImage.
func (c *Cache) Geometry() chunk.Geometry { return c.inner.Geometry() }

// DirtyBytes returns the bytes awaiting writeback.
func (c *Cache) DirtyBytes() int64 { return int64(c.dirty.Count()) * c.pageSize }

// CachedBytes returns the bytes resident in the cache.
func (c *Cache) CachedBytes() int64 { return int64(c.cached.Count()) * c.pageSize }

// Blocks returns the private bitmap blocks the cache's resident and dirty
// sets own: a cache that is empty or wholly resident owns none.
func (c *Cache) Blocks() int { return c.cached.Blocks() + c.dirty.Blocks() }

// span converts a byte range to cache-page interval [first, last].
func (c *Cache) span(off, length int64) (chunk.Idx, chunk.Idx) {
	return chunk.Idx(c.pageDiv.Div(off)), chunk.Idx(c.pageDiv.Div(off + length - 1))
}

// dirtyGuestMem charges the guest's own page-cache copy for buffered I/O.
func (c *Cache) dirtyGuestMem(off, length int64) {
	if c.g.Buffered {
		c.g.VM.Mem.DirtyMapped(c.memReg, off, length)
	}
}

// Write implements vm.DiskImage: it buffers [off, off+length), absorbing at
// cache write speed after blocking while the cache is over its dirty limit.
// In passthrough mode the write goes straight to the image.
func (c *Cache) Write(p *sim.Proc, off, length int64) {
	if length <= 0 {
		return
	}
	// Host-side path: a write already submitted completes even if the VM
	// pauses meanwhile (DMA drain); new I/O is gated at the FS boundary.
	c.dirtyGuestMem(off, length)
	if !c.on {
		c.inner.Write(p, off, length)
		return
	}
	for c.DirtyBytes() >= c.g.P.DirtyLimit {
		c.throttle.Wait(p)
	}
	p.Sleep(float64(length) / c.g.P.CacheWriteBandwidth)
	first, last := c.span(off, length)
	c.cached.AddRange(first, last)
	c.dirty.AddRange(first, last)
	c.AbsorbedBytes += float64(length)
	c.wbKick.Broadcast(c.eng)
}

// Read implements vm.DiskImage: resident runs at cache speed, the rest from
// the image (after which they are cached clean).
func (c *Cache) Read(p *sim.Proc, off, length int64) {
	if length <= 0 {
		return
	}
	if !c.on {
		c.inner.Read(p, off, length)
		return
	}
	first, last := c.span(off, length)
	run := first
	for run <= last {
		inCache := c.cached.Contains(run)
		end := c.cached.RunEnd(run, last)
		runOff := int64(run) * c.pageSize
		runLen := int64(end-run+1) * c.pageSize
		if rem := off + length - runOff; rem < runLen {
			runLen = rem
		}
		if runOff < off {
			runLen -= off - runOff
			runOff = off
		}
		if inCache {
			p.Sleep(float64(runLen) / c.g.P.CacheReadBandwidth)
			c.HitBytes += float64(runLen)
		} else {
			c.inner.Read(p, runOff, runLen)
			c.cached.AddRange(run, end)
			c.MissBytes += float64(runLen)
			c.dirtyGuestMem(runOff, runLen)
		}
		run = end + 1
	}
}

// Sync implements vm.DiskImage: every dirty page reaches the image, then the
// image itself syncs. During a migration this is the control-transfer hook,
// so the flush rides inside the hypervisor's stop-and-copy window.
func (c *Cache) Sync(p *sim.Proc) {
	if c.on {
		c.wbKick.Broadcast(c.eng)
		for c.dirty.Count() > 0 || c.wbFlights > 0 {
			c.idle.Wait(p)
		}
	}
	c.inner.Sync(p)
}

// Invalidate resets the cache to cold. The orchestrator calls it right
// after a live migration's control transfer: the cache belongs to the
// source host and does not travel with the VM. Dirty pages still queued on
// the source keep draining there (the source stays up until released); from
// this object's point of view they are simply dropped, and any blocked
// writers are released.
func (c *Cache) Invalidate() {
	c.cached.Clear()
	c.dirty.Clear()
	c.throttle.Broadcast(c.eng)
}

// MarkCachedRange records that [off, off+length) is resident and clean.
// Migration transfers land in the destination host's RAM, so the
// orchestrator marks transferred chunks warm after a control transfer and
// as late pulls install.
func (c *Cache) MarkCachedRange(off, length int64) {
	if !c.on || length <= 0 {
		return
	}
	c.cached.AddRange(c.span(off, length))
}

// writebackLoop is the flusher thread: whenever dirty pages exist it writes
// them back in offset order (rotating cursor), at most WritebackBatch bytes
// per submission.
func (c *Cache) writebackLoop(p *sim.Proc) {
	batchPages := int(c.g.P.WritebackBatch / c.pageSize)
	if batchPages < 1 {
		batchPages = 1
	}
	cursor := chunk.Idx(0)
	for {
		for c.dirty.Count() == 0 {
			if c.wbFlights == 0 {
				c.idle.Broadcast(c.eng)
			}
			c.wbKick.Wait(p)
		}
		start, n := c.dirty.NextRunFrom(cursor, batchPages)
		if start < 0 {
			start, n = c.dirty.NextRunFrom(0, batchPages)
		}
		if start < 0 {
			continue
		}
		c.dirty.RemoveRange(start, start+chunk.Idx(n-1))
		c.throttle.Broadcast(c.eng)
		off := int64(start) * c.pageSize
		length := int64(n) * c.pageSize
		if geo := c.Geometry(); off+length > geo.ImageSize {
			length = geo.ImageSize - off
		}
		c.wbFlights++
		c.inner.Write(p, off, length)
		c.wbFlights--
		c.WritebackBytes += float64(length)
		cursor = start + chunk.Idx(n)
		if int(cursor) >= c.pages {
			cursor = 0
		}
	}
}

// FS is a minimal journaling filesystem over the virtual disk: contiguous
// extents for file data, a cyclic journal, and a hot inode-table chunk.
type FS struct {
	g *Guest

	journalOff int64
	journalLen int64
	journalCur int64
	inodeOff   int64
	dataOff    int64
	dataEnd    int64
	nextAlloc  int64
	sinceMeta  int64

	files map[string]*File
}

// File is an open file backed by a contiguous extent.
type File struct {
	Name string
	Off  int64 // extent base within the image
	Size int64 // extent length
}

// Image layout fractions: the base OS occupies the head of the image, the
// journal and inode table sit behind it, file data fills the tail.
const (
	osFraction    = 8  // OS base = imageSize/8 (512 MB of a 4 GB image)
	journalMB     = 8  // cyclic journal length
	dataStartFrac = 16 // data area starts at 3/16 of the image
)

func newFS(g *Guest) *FS {
	size := g.VM.Image.Geometry().ImageSize
	osEnd := size / osFraction
	jlen := int64(journalMB * params.MB)
	if jlen > size/64 {
		jlen = size / 64 // small test images get proportionally small journals
	}
	fs := &FS{
		g:          g,
		journalOff: osEnd,
		journalLen: jlen,
		inodeOff:   osEnd + jlen,
		dataOff:    size * 3 / dataStartFrac,
		dataEnd:    size,
		files:      make(map[string]*File),
	}
	fs.nextAlloc = fs.dataOff
	if fs.dataOff <= fs.inodeOff+params.MB {
		panic("guest: image too small for filesystem layout")
	}
	return fs
}

// DataArea returns the extent of the file-data region.
func (fs *FS) DataArea() (off, end int64) { return fs.dataOff, fs.dataEnd }

// OSArea returns the extent holding base OS content.
func (fs *FS) OSArea() (off, end int64) {
	size := fs.g.VM.Image.Geometry().ImageSize
	return 0, size / osFraction
}

// Create allocates a contiguous extent for a new file. Creating over an
// existing name returns the existing file (IOR reuses its test file).
func (fs *FS) Create(name string, size int64) *File {
	if f, ok := fs.files[name]; ok {
		if f.Size < size {
			panic(fmt.Sprintf("guest: file %q recreated larger (%d -> %d)", name, f.Size, size))
		}
		return f
	}
	if fs.nextAlloc+size > fs.dataEnd {
		panic(fmt.Sprintf("guest: filesystem full allocating %q (%d bytes)", name, size))
	}
	f := &File{Name: name, Off: fs.nextAlloc, Size: size}
	fs.nextAlloc += size
	fs.files[name] = f
	return f
}

func (fs *FS) checkRange(f *File, off, length int64, op string) {
	if off < 0 || off+length > f.Size {
		panic(fmt.Sprintf("guest: %s [%d,%d) outside file %q of %d bytes", op, off, off+length, f.Name, f.Size))
	}
}

// Write writes file data through the cache and emits journal/inode metadata
// writes every MetadataEvery bytes. Metadata lands on few chunks that
// therefore become write-hot.
func (fs *FS) Write(p *sim.Proc, f *File, off, length int64) {
	fs.checkRange(f, off, length, "write")
	fs.g.VM.CheckPause(p) // the guest issues no I/O while paused
	fs.g.VM.Image.Write(p, f.Off+off, length)
	fs.metadata(p, length)
}

// metadata accrues written bytes and issues commits.
func (fs *FS) metadata(p *sim.Proc, length int64) {
	fs.sinceMeta += length
	for fs.sinceMeta >= fs.g.P.MetadataEvery {
		fs.sinceMeta -= fs.g.P.MetadataEvery
		fs.commit(p)
	}
}

// commit models one journal commit: a journal record plus an inode-table
// update (a deliberately partial chunk write).
func (fs *FS) commit(p *sim.Proc) {
	jw := fs.g.P.JournalWrite
	if fs.journalCur+jw > fs.journalLen {
		fs.journalCur = 0
	}
	fs.g.VM.Image.Write(p, fs.journalOff+fs.journalCur, jw)
	fs.journalCur += jw
	fs.g.VM.Image.Write(p, fs.inodeOff, 4*params.KB)
}

// Read reads file data through the cache.
func (fs *FS) Read(p *sim.Proc, f *File, off, length int64) {
	fs.checkRange(f, off, length, "read")
	fs.g.VM.CheckPause(p)
	fs.g.VM.Image.Read(p, f.Off+off, length)
}

// ReadRaw reads an arbitrary image range through the cache (boot traffic).
func (fs *FS) ReadRaw(p *sim.Proc, off, length int64) {
	fs.g.VM.CheckPause(p)
	fs.g.VM.Image.Read(p, off, length)
}

// Fsync flushes the whole stack.
func (fs *FS) Fsync(p *sim.Proc) { fs.g.VM.Image.Sync(p) }

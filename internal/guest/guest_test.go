package guest

import (
	"math"
	"testing"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/vm"
)

// stubImage records guest I/O and charges local-disk time.
type stubImage struct {
	geo        chunk.Geometry
	cl         *fabric.Cluster
	node       *fabric.Node
	readBytes  int64
	writeBytes int64
	writes     []chunk.Range
	syncs      int
}

func (s *stubImage) Read(p *sim.Proc, off, length int64) {
	s.readBytes += length
	s.cl.DiskIO(p, s.node, float64(length), flow.TagOther)
}

func (s *stubImage) Write(p *sim.Proc, off, length int64) {
	s.writeBytes += length
	s.writes = append(s.writes, chunk.Range{Off: off, Len: length})
	s.cl.DiskIO(p, s.node, float64(length), flow.TagOther)
}

func (s *stubImage) Sync(p *sim.Proc)         { s.syncs++ }
func (s *stubImage) Geometry() chunk.Geometry { return s.geo }

const (
	testImageSize = 64 * params.MB
	testRAM       = 64 * params.MB
)

func newTestGuest(eng *sim.Engine) (*Guest, *stubImage) {
	return newTestGuestSized(eng, testImageSize)
}

func newTestGuestSized(eng *sim.Engine, imageSize int64) (*Guest, *stubImage) {
	tb := params.DefaultTestbed()
	tb.DiskBandwidth = 10 * params.MB // slow disk: cache effects visible
	tb.NetLatency = 0
	tb.DiskLatency = 0
	cl := fabric.NewCluster(eng, 1, tb)
	mem := vm.NewMemory(testRAM, 256*params.KB)
	v := vm.New(eng, "vm0", cl.Nodes[0], mem)
	img := &stubImage{
		geo:  chunk.NewGeometry(imageSize, 256*params.KB),
		cl:   cl,
		node: cl.Nodes[0],
	}
	v.Image = img
	gp := params.DefaultGuest()
	gp.CacheWriteBandwidth = 100 * params.MB
	gp.CacheReadBandwidth = 1000 * params.MB
	gp.DirtyLimit = 8 * params.MB
	gp.WritebackBatch = 1 * params.MB
	gp.CachePage = 16 * params.KB
	gp.CacheRegion = 32 * params.MB
	gp.MetadataEvery = 4 * params.MB
	gp.JournalWrite = 256 * params.KB
	return New(eng, v, gp, Options{HostCache: true, Buffered: true, Inner: img}), img
}

func TestPassthroughModeBypassesCache(t *testing.T) {
	eng := sim.New()
	tb := params.DefaultTestbed()
	tb.DiskBandwidth = 10 * params.MB
	tb.NetLatency = 0
	tb.DiskLatency = 0
	cl := fabric.NewCluster(eng, 1, tb)
	mem := vm.NewMemory(testRAM, 256*params.KB)
	v := vm.New(eng, "vm0", cl.Nodes[0], mem)
	img := &stubImage{geo: chunk.NewGeometry(testImageSize, 256*params.KB), cl: cl, node: cl.Nodes[0]}
	v.Image = img
	g := New(eng, v, params.DefaultGuest(), Options{HostCache: false, Buffered: true, Inner: img}) // passthrough
	f := g.FS.Create("f", 4*params.MB)
	var wTime sim.Time
	eng.Go("app", func(p *sim.Proc) {
		start := p.Now()
		g.FS.Write(p, f, 0, 2*params.MB)
		wTime = p.Now() - start
		g.FS.Read(p, f, 0, 2*params.MB)
	})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	// Disk at 10 MB/s: the 2 MB write takes ~0.2s (no absorb), and the read
	// goes to the image (no cache hit).
	if wTime < 0.15 {
		t.Fatalf("passthrough write took %v, want >= 0.2 (disk-bound)", wTime)
	}
	if img.readBytes != 2*params.MB {
		t.Fatalf("image reads = %d, want 2 MB (no caching)", img.readBytes)
	}
	eng.Shutdown()
}

func TestSyncIsVMImageSync(t *testing.T) {
	// The hypervisor calls VM.Image.Sync; with the cache interposed this
	// must flush dirty data before reaching the inner image.
	eng := sim.New()
	g, img := newTestGuest(eng)
	f := g.FS.Create("f", 4*params.MB)
	eng.Go("app", func(p *sim.Proc) {
		g.FS.Write(p, f, 0, 4*params.MB)
		g.VM.Image.Sync(p) // as the hypervisor would
	})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if img.syncs != 1 {
		t.Fatalf("inner syncs = %d, want 1", img.syncs)
	}
	if img.writeBytes < 4*params.MB {
		t.Fatalf("sync returned before flush: image saw %d bytes", img.writeBytes)
	}
	eng.Shutdown()
}

func TestWriteAbsorbedAtCacheSpeed(t *testing.T) {
	eng := sim.New()
	g, _ := newTestGuest(eng)
	f := g.FS.Create("f", 4*params.MB)
	var doneAt sim.Time
	eng.Go("app", func(p *sim.Proc) {
		g.FS.Write(p, f, 0, 2*params.MB)
		doneAt = p.Now()
	})
	if err := eng.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	// 2 MB at 100 MB/s cache speed = 0.02s; disk (10 MB/s) would need 0.2s.
	if doneAt == 0 || doneAt > 0.05 {
		t.Fatalf("write absorbed in %v, want ~0.02 (cache speed)", doneAt)
	}
	eng.Shutdown()
}

func TestWritebackDrainsToImage(t *testing.T) {
	eng := sim.New()
	g, img := newTestGuest(eng)
	f := g.FS.Create("f", 4*params.MB)
	eng.Go("app", func(p *sim.Proc) {
		g.FS.Write(p, f, 0, 4*params.MB)
		g.FS.Fsync(p)
	})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	// Data (4 MB) + one metadata commit (journal 256K + inode page rounded
	// to one 16K cache page).
	if img.writeBytes < 4*params.MB {
		t.Fatalf("image saw %d bytes, want >= 4 MB", img.writeBytes)
	}
	if g.Cache.DirtyBytes() != 0 {
		t.Fatalf("dirty after fsync = %d", g.Cache.DirtyBytes())
	}
	if img.syncs != 1 {
		t.Fatalf("syncs = %d, want 1", img.syncs)
	}
	eng.Shutdown()
}

func TestDirtyThrottling(t *testing.T) {
	eng := sim.New()
	g, _ := newTestGuest(eng)
	f := g.FS.Create("f", 32*params.MB)
	var doneAt sim.Time
	eng.Go("app", func(p *sim.Proc) {
		g.FS.Write(p, f, 0, 32*params.MB)
		doneAt = p.Now()
	})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	// 32 MB with an 8 MB dirty limit and 10 MB/s writeback: the writer must
	// wait for drain, so total time approaches (32-8)/10 = 2.4s rather than
	// the 0.32s pure cache speed.
	if doneAt < 2.0 {
		t.Fatalf("write finished in %v — dirty throttling not applied", doneAt)
	}
	eng.Shutdown()
}

func TestRewriteDirtyPagesCreatesNoExtraWriteback(t *testing.T) {
	eng := sim.New()
	g, img := newTestGuest(eng)
	gp := g.P
	f := g.FS.Create("f", 2*params.MB)
	eng.Go("app", func(p *sim.Proc) {
		// Rewrite the same 2 MB five times quickly; pages stay dirty between
		// rewrites so writeback sees each page roughly once per drain.
		for i := 0; i < 5; i++ {
			g.FS.Write(p, f, 0, 2*params.MB)
		}
		g.FS.Fsync(p)
	})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	_ = gp
	// 10 MB of app writes; image should see far less (2 MB data + metadata,
	// possibly one redirtied drain more).
	if img.writeBytes > 6*params.MB {
		t.Fatalf("image saw %d bytes for 10 MB of rewrites — bitmap dirty semantics broken", img.writeBytes)
	}
	eng.Shutdown()
}

func TestReadHitVsMiss(t *testing.T) {
	eng := sim.New()
	g, img := newTestGuest(eng)
	f := g.FS.Create("f", 4*params.MB)
	var missTime, hitTime sim.Time
	eng.Go("app", func(p *sim.Proc) {
		start := p.Now()
		g.FS.Read(p, f, 0, 4*params.MB) // cold: from image
		missTime = p.Now() - start
		start = p.Now()
		g.FS.Read(p, f, 0, 4*params.MB) // warm: from cache
		hitTime = p.Now() - start
	})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if img.readBytes != 4*params.MB {
		t.Fatalf("image reads = %d, want 4 MB (one cold read)", img.readBytes)
	}
	if hitTime >= missTime/10 {
		t.Fatalf("hit %v vs miss %v: cache not faster", hitTime, missTime)
	}
	if g.Cache.HitBytes != 4*params.MB || g.Cache.MissBytes != 4*params.MB {
		t.Fatalf("hit/miss accounting: %v/%v", g.Cache.HitBytes, g.Cache.MissBytes)
	}
	eng.Shutdown()
}

// TestCacheRangesAcrossWords drives Write, Read and MarkCachedRange over
// unaligned ranges that straddle a 64-page bitmap word and the image's
// short last page (alone in the last word), then drains writeback. Every
// byte counter is computed by hand.
func TestCacheRangesAcrossWords(t *testing.T) {
	const pg = 16 * params.KB         // CachePage
	const size = testImageSize + 6000 // pages 0..4096; page 4096 holds 6000 bytes
	eng := sim.New()
	g, img := newTestGuestSized(eng, size)
	c := g.Cache
	check := func(step string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", step, got, want)
		}
	}
	eng.Go("app", func(p *sim.Proc) {
		c.Write(p, 60*pg+100, 8*pg) // pages 60..68
		check("dirty after write", c.DirtyBytes(), 9*pg)
		check("cached after write", c.CachedBytes(), 9*pg)
		c.MarkCachedRange(4094*pg+7, size-4094*pg-7) // pages 4094..4096
		check("cached after mark", c.CachedBytes(), 12*pg)
		// Pages 58..69: miss 58..59 (from byte 50), hit 60..68, miss 69.
		c.Read(p, 58*pg+50, 12*pg-50)
		check("cached after read", c.CachedBytes(), 15*pg)
		// Pages 4093..4096: miss 4093 (from byte 1), hit to the image end.
		c.Read(p, 4093*pg+1, size-4093*pg-1)
		check("cached after tail read", c.CachedBytes(), 16*pg)
		c.Write(p, size-100, 100) // page 4096
		c.Sync(p)
		check("dirty after sync", c.DirtyBytes(), 0)
		check("cached after sync", c.CachedBytes(), 16*pg)
	})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
	if want := float64(8*pg + 100); c.AbsorbedBytes != want {
		t.Errorf("AbsorbedBytes = %v, want %v", c.AbsorbedBytes, want)
	}
	if want := float64(11*pg + 6000); c.HitBytes != want {
		t.Errorf("HitBytes = %v, want %v", c.HitBytes, want)
	}
	if want := float64(4*pg - 51); c.MissBytes != want {
		t.Errorf("MissBytes = %v, want %v", c.MissBytes, want)
	}
	if want := float64(9*pg + 6000); c.WritebackBytes != want {
		t.Errorf("WritebackBytes = %v, want %v", c.WritebackBytes, want)
	}
	check("image read bytes", img.readBytes, 4*pg-51)
	want := []chunk.Range{{Off: 60 * pg, Len: 9 * pg}, {Off: 4096 * pg, Len: 6000}}
	if len(img.writes) != len(want) || img.writes[0] != want[0] || img.writes[1] != want[1] {
		t.Errorf("writeback submissions = %v, want %v", img.writes, want)
	}
}

func TestReadAfterWriteHitsCache(t *testing.T) {
	eng := sim.New()
	g, img := newTestGuest(eng)
	f := g.FS.Create("f", 2*params.MB)
	eng.Go("app", func(p *sim.Proc) {
		g.FS.Write(p, f, 0, 2*params.MB)
		g.FS.Read(p, f, 0, 2*params.MB)
	})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if img.readBytes != 0 {
		t.Fatalf("image reads = %d, want 0 (write-allocated cache)", img.readBytes)
	}
	eng.Shutdown()
}

func TestMetadataCommitsHitHotChunks(t *testing.T) {
	eng := sim.New()
	g, img := newTestGuest(eng)
	f := g.FS.Create("f", 32*params.MB)
	eng.Go("app", func(p *sim.Proc) {
		g.FS.Write(p, f, 0, 32*params.MB) // 8 commits at MetadataEvery=4MB
		g.FS.Fsync(p)
	})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	// The inode offset must have been written back repeatedly... at least
	// once; journal area too. Count writeback ranges touching the inode.
	geo := g.VM.Image.Geometry()
	inodeChunk := geo.ChunkOf(g.FS.inodeOff)
	touches := 0
	for _, w := range img.writes {
		first, last := geo.Span(w)
		if inodeChunk >= first && inodeChunk <= last {
			touches++
		}
	}
	if touches == 0 {
		t.Fatal("inode chunk never written back")
	}
	eng.Shutdown()
}

func TestWriteDirtiesVMMemory(t *testing.T) {
	eng := sim.New()
	g, _ := newTestGuest(eng)
	f := g.FS.Create("f", 4*params.MB)
	before := g.VM.Mem.DirtyBytes(0)
	eng.Go("app", func(p *sim.Proc) {
		g.FS.Write(p, f, 0, 4*params.MB)
	})
	if err := eng.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	after := g.VM.Mem.DirtyBytes(eng.Now())
	if after-before < 4*params.MB {
		t.Fatalf("memory dirtied by %d, want >= 4 MB (cache pages live in RAM)", after-before)
	}
	eng.Shutdown()
}

func TestRewriteDirtiesSameMemory(t *testing.T) {
	// Rewriting one file must not grow the dirty footprint unboundedly:
	// the cache maps file offsets to fixed memory groups.
	eng := sim.New()
	g, _ := newTestGuest(eng)
	f := g.FS.Create("f", 4*params.MB)
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			g.FS.Write(p, f, 0, 4*params.MB)
		}
	})
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	dirty := g.VM.Mem.DirtyBytes(eng.Now())
	// 16 MB written, but only ~4 MB (+ metadata) of distinct memory.
	if dirty > 6*params.MB {
		t.Fatalf("dirty memory = %d after rewrites, want ~4 MB", dirty)
	}
	eng.Shutdown()
}

func TestFileExtentsDisjoint(t *testing.T) {
	eng := sim.New()
	g, _ := newTestGuest(eng)
	a := g.FS.Create("a", 1*params.MB)
	b := g.FS.Create("b", 1*params.MB)
	if a.Off+a.Size > b.Off {
		t.Fatal("extents overlap")
	}
	dataOff, dataEnd := g.FS.DataArea()
	if a.Off < dataOff || b.Off+b.Size > dataEnd {
		t.Fatal("extents outside data area")
	}
	if g.FS.Create("a", 1*params.MB) != a {
		t.Fatal("recreating a file did not return the same extent")
	}
	eng.Shutdown()
}

func TestCachePausesWithVM(t *testing.T) {
	eng := sim.New()
	g, _ := newTestGuest(eng)
	f := g.FS.Create("f", 8*params.MB)
	var writeDone sim.Time
	eng.Go("app", func(p *sim.Proc) {
		g.FS.Write(p, f, 0, 1*params.MB)
		writeDone = p.Now()
	})
	g.VM.Pause()
	eng.At(5, func() { g.VM.Resume() })
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if writeDone < 5 {
		t.Fatalf("write completed at %v during pause", writeDone)
	}
	eng.Shutdown()
}

func TestThroughputNumbersRealistic(t *testing.T) {
	// Sanity-check the calibration story at miniature scale: write
	// throughput sits between disk and cache speed, read hits at cache speed.
	eng := sim.New()
	g, _ := newTestGuest(eng)
	f := g.FS.Create("f", 16*params.MB)
	var wTime, rTime sim.Time
	eng.Go("app", func(p *sim.Proc) {
		start := p.Now()
		g.FS.Write(p, f, 0, 16*params.MB)
		wTime = p.Now() - start
		start = p.Now()
		g.FS.Read(p, f, 0, 16*params.MB)
		rTime = p.Now() - start
	})
	if err := eng.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	wMBs := 16.0 / wTime * 1
	if wMBs < 10 || wMBs > 100 {
		t.Fatalf("write throughput %.1f MB/s, want between disk (10) and cache (100)", wMBs)
	}
	rMBs := 16.0 / rTime
	if math.Abs(rMBs-1000)/1000 > 0.3 {
		t.Fatalf("read throughput %.1f MB/s, want ~cache speed 1000", rMBs)
	}
	eng.Shutdown()
}

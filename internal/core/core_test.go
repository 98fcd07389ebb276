package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/pfs"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/vm"
)

const (
	kb        = params.KB
	mb        = params.MB
	chunkSize = 256 * kb
	imageSize = 64 * mb // 256 chunks
)

type rig struct {
	eng   *sim.Engine
	cl    *fabric.Cluster
	store *pfs.FS
	base  *pfs.File
	geo   chunk.Geometry
}

// newRig builds: nodes 0..3 compute, nodes 4..7 repository servers, the
// repository striped by chunk.
func newRig() *rig { return newRigStripe(chunkSize) }

// newRigStripe is newRig with the given repository stripe size.
func newRigStripe(stripe int64) *rig {
	eng := sim.New()
	tb := params.DefaultTestbed()
	tb.NICBandwidth = 100 * mb
	tb.DiskBandwidth = 50 * mb
	tb.FabricBandwidth = 8000 * mb
	tb.NetLatency = 0.0001
	tb.DiskLatency = 0
	cl := fabric.NewCluster(eng, 8, tb)
	store := pfs.NewFS(cl, cl.Nodes[4:8], params.Repository{StripeSize: stripe, MetadataLatency: 0}, flow.TagRepo)
	base := store.Create("base.img", imageSize)
	return &rig{eng: eng, cl: cl, store: store, base: base,
		geo: chunk.NewGeometry(imageSize, chunkSize)}
}

func (r *rig) image(mode Mode, node int) *Image {
	return NewImage(r.eng, r.cl, r.cl.Nodes[node], r.geo, r.base, nil, DefaultOptions(mode), "img")
}

func (r *rig) imageOpts(opts Options, node int) *Image {
	return NewImage(r.eng, r.cl, r.cl.Nodes[node], r.geo, r.base, nil, opts, "img")
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.RunUntil(1e6); err != nil {
		t.Fatal(err)
	}
	r.eng.Shutdown()
}

func TestNormalOperationWriteThenRead(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("io", func(p *sim.Proc) {
		im.Write(p, 0, 1*mb)
		if im.ModifiedCount() != 4 {
			t.Errorf("modified = %d, want 4", im.ModifiedCount())
		}
		before := r.store.ReadBytes()
		im.Read(p, 0, 1*mb) // local, no repo traffic
		if r.store.ReadBytes() != before {
			t.Error("local read hit the repository")
		}
		im.Read(p, 8*mb, 1*mb) // base content: repo fetch
		if r.store.ReadBytes() != before+1*mb {
			t.Errorf("repo bytes = %v, want +1 MB", r.store.ReadBytes()-before)
		}
		im.Read(p, 8*mb, 1*mb) // cached locally now
		if r.store.ReadBytes() != before+1*mb {
			t.Error("second read of cached base content hit the repository")
		}
	})
	r.run(t)
}

// TestBaseReadMovesAddressedBytes pins the repository's byte rule: a
// one-chunk base read moves one chunk, also when a stripe holds two chunks.
func TestBaseReadMovesAddressedBytes(t *testing.T) {
	for _, stripe := range []int64{chunkSize, 2 * chunkSize} {
		r := newRigStripe(stripe)
		im := r.image(ModeHybrid, 0)
		r.eng.Go("io", func(p *sim.Proc) {
			im.Read(p, 33*chunkSize, chunkSize)
		})
		r.run(t)
		if got := r.store.ReadBytes(); got != chunkSize {
			t.Errorf("stripe %d: repository served %v bytes, want %d", stripe, got, chunkSize)
		}
		if got := r.cl.Net.BytesByTag(flow.TagRepo); math.Abs(got-chunkSize) > 1e-6 {
			t.Errorf("stripe %d: repository traffic %v bytes, want %d", stripe, got, chunkSize)
		}
	}
}

func TestPartialWriteToBaseChunkRMW(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("io", func(p *sim.Proc) {
		im.Write(p, 100, 1000) // partial chunk, not local
	})
	r.run(t)
	if im.Stats().RMWStalls != 1 {
		t.Fatalf("RMW stalls = %d, want 1", im.Stats().RMWStalls)
	}
	if im.ModifiedCount() != 1 {
		t.Fatalf("modified = %d, want 1", im.ModifiedCount())
	}
}

// migrate drives the hypervisor-side protocol: request, let the push phase
// run for pushDur, then sync (control transfer).
func migrate(r *rig, im *Image, dstNode int, pushDur float64, after func(p *sim.Proc)) {
	r.eng.Go("hv", func(p *sim.Proc) {
		im.MigrationRequest(r.cl.Nodes[dstNode])
		p.Sleep(pushDur)
		im.Sync(p)
		if after != nil {
			after(p)
		}
	})
}

// TestPreseededIdleMigrationIsSparse: a preseeded VM that writes nothing
// migrates without allocating a content page on either side, storage for
// its write counts or a dedup set, in every mode, and after the control
// transfer marks its wholly local image resident, its guest cache's
// resident and dirty sets hold no private block. This is the per-VM cost
// of an idle fleet.
func TestPreseededIdleMigrationIsSparse(t *testing.T) {
	for _, mode := range []Mode{ModeHybrid, ModeMirror, ModePostcopy} {
		r := newRig()
		opts := DefaultOptions(mode)
		opts.Preseeded = true
		g := r.guestOver(opts, 0)
		im := g.VM.Image.(*Image)
		src := im.cur
		var dst *side
		var counts *chunk.Counter
		r.eng.Go("hv", func(p *sim.Proc) {
			im.MigrationRequest(r.cl.Nodes[1])
			dst, counts = im.dst, im.writeCount
			im.Sync(p)
			// The orchestrator's control-transfer step: the destination
			// cache starts cold but for what the migration moved.
			g.Cache.Invalidate()
			im.ForEachLocalRange(g.Cache.MarkCachedRange)
		})
		r.run(t)
		if !im.Stats().Complete || im.cur != dst {
			t.Fatalf("%v: migration incomplete", mode)
		}
		if src.content.Pages() != 0 || dst.content.Pages() != 0 {
			t.Errorf("%v: content pages source %d, destination %d; want 0 and 0",
				mode, src.content.Pages(), dst.content.Pages())
		}
		if counts.Allocated() {
			t.Errorf("%v: write counts allocated for a VM that wrote nothing", mode)
		}
		if im.known != nil {
			t.Errorf("%v: a dedup content set exists with Dedup off", mode)
		}
		if got, want := g.Cache.CachedBytes(), int64(imageSize); got != want {
			t.Errorf("%v: %d bytes cached after control transfer, want the whole image (%d)", mode, got, want)
		}
		if b := g.Cache.Blocks(); b != 0 {
			t.Errorf("%v: guest cache sets hold %d private blocks after control transfer, want 0", mode, b)
		}
	}
}

// guestOver assembles a guest whose image is a manager Image on node over
// the guest's host cache, as a cluster launch does: 4 KB cache pages, so
// the cache's sets span several pages of the image.
func (r *rig) guestOver(opts Options, node int) *guest.Guest {
	v := vm.New(r.eng, "vm", r.cl.Nodes[node], vm.NewMemory(256*mb, 256*kb))
	gp := params.DefaultGuest()
	gp.CachePage = 4 * kb
	return guest.New(r.eng, v, gp, guest.Options{
		HostCache: true,
		Inner:     &guest.RawDisk{Cl: r.cl, Node: func() *fabric.Node { return v.Node }, Geo: r.geo},
		MakeImage: func(backing vm.DiskImage) vm.DiskImage {
			return NewImage(r.eng, r.cl, r.cl.Nodes[node], r.geo, r.base, backing, opts, "img")
		},
	})
}

func TestHybridQuiescentMigration(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 16*mb) // 64 modified chunks
		migrate(r, im, 1, 5, nil)
	})
	r.run(t)
	st := im.Stats()
	if !st.Complete {
		t.Fatal("migration incomplete")
	}
	// Quiescent source: everything should have been pushed before sync.
	if st.PushedChunks != 64 {
		t.Fatalf("pushed chunks = %d, want 64", st.PushedChunks)
	}
	if st.PulledChunks != 0 || st.OnDemandPulls != 0 {
		t.Fatalf("pulled = %d/%d, want 0 (all pushed)", st.PulledChunks, st.OnDemandPulls)
	}
	if st.ReleasedAt != st.ControlAt {
		t.Fatalf("release at %v != control at %v for fully pushed migration", st.ReleasedAt, st.ControlAt)
	}
	if im.Node() != r.cl.Nodes[1] {
		t.Fatal("active side not on destination")
	}
	// Content survived.
	snap := im.cur.content.Snapshot()
	for c := 0; c < 64; c++ {
		if snap[c] == 0 {
			t.Fatalf("chunk %d lost content", c)
		}
	}
}

func TestHybridShortPushPhasePullsRest(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 32*mb)        // 128 chunks
		migrate(r, im, 1, 0.05, nil) // sync almost immediately
	})
	r.run(t)
	st := im.Stats()
	if !st.Complete {
		t.Fatal("migration incomplete")
	}
	if st.PulledChunks == 0 {
		t.Fatal("expected background pulls after early sync")
	}
	if st.ReleasedAt <= st.ControlAt {
		t.Fatal("release should come after control transfer when pulls remain")
	}
	// All 128 chunks accounted for exactly once: canceled push chunks were
	// re-queued and arrive via pull; no chunk was written twice here.
	total := st.PushedChunks + st.PulledChunks + st.OnDemandPulls
	if total != 128 {
		t.Fatalf("chunks moved = %d (pushed %d + pulled %d + ondemand %d, canceled %d), want 128",
			total, st.PushedChunks, st.PulledChunks, st.OnDemandPulls, st.CanceledPushes)
	}
}

func TestThresholdStopsPushingHotChunks(t *testing.T) {
	r := newRig()
	opts := DefaultOptions(ModeHybrid)
	opts.Threshold = 3
	im := r.imageOpts(opts, 0)
	hot := int64(0) // chunk 0 will be rewritten continuously
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 8*mb)
		im.MigrationRequest(r.cl.Nodes[1])
		// Rewrite chunk 0 well past the threshold while pushing runs.
		for i := 0; i < 10; i++ {
			im.Write(p, hot, chunkSize)
			p.Sleep(0.01)
		}
		p.Sleep(2)
		im.Sync(p)
	})
	r.run(t)
	st := im.Stats()
	if !st.Complete {
		t.Fatal("migration incomplete")
	}
	if st.SkippedHot == 0 {
		t.Fatal("hot chunk was not excluded from the push phase")
	}
	// The hot chunk must arrive via pull, with its final content.
	if st.PulledChunks+st.OnDemandPulls == 0 {
		t.Fatal("hot chunk never pulled")
	}
}

func TestPushCountBoundedByThreshold(t *testing.T) {
	// A chunk is transferred at most Threshold times during the push phase:
	// with threshold 2 and many rewrites, push traffic for that chunk caps.
	r := newRig()
	opts := DefaultOptions(ModeHybrid)
	opts.Threshold = 2
	opts.PushBatch = 1
	im := r.imageOpts(opts, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, chunkSize) // exactly one chunk
		im.MigrationRequest(r.cl.Nodes[1])
		for i := 0; i < 20; i++ {
			im.Write(p, 0, chunkSize)
			p.Sleep(0.02)
		}
		p.Sleep(1)
		im.Sync(p)
	})
	r.run(t)
	st := im.Stats()
	// Chunk 0 was pushed at most Threshold times (plus it may be pulled once).
	if st.PushedChunks > 2 {
		t.Fatalf("pushed %d times, threshold 2 should bound it", st.PushedChunks)
	}
	if !st.Complete {
		t.Fatal("migration incomplete")
	}
}

func TestPostcopyPushesNothing(t *testing.T) {
	r := newRig()
	im := r.image(ModePostcopy, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 16*mb)
		migrate(r, im, 1, 5, nil)
	})
	r.run(t)
	st := im.Stats()
	if st.PushedBytes != 0 || st.PushedChunks != 0 {
		t.Fatalf("postcopy pushed %v bytes", st.PushedBytes)
	}
	if st.PulledChunks == 0 {
		t.Fatal("postcopy pulled nothing")
	}
	if !st.Complete {
		t.Fatal("migration incomplete")
	}
	if got := r.cl.Net.BytesByTag(flow.TagStoragePush); got != 0 {
		t.Fatalf("push traffic = %v, want 0", got)
	}
}

func TestMirrorSynchronousWrites(t *testing.T) {
	r := newRig()
	// Make the network the slow path so the synchronous mirror wait is
	// observable against the local disk write.
	r.cl.Nodes[0].NICOut.Capacity = 10 * mb
	im := r.image(ModeMirror, 0)
	var durNormal, durMirror sim.Duration
	r.eng.Go("setup", func(p *sim.Proc) {
		start := p.Now()
		im.Write(p, 0, 4*mb)
		durNormal = p.Now() - start
		im.MigrationRequest(r.cl.Nodes[1])
		start = p.Now()
		im.Write(p, 8*mb, 4*mb)
		durMirror = p.Now() - start
		p.Sleep(3)
		im.Sync(p)
	})
	r.run(t)
	st := im.Stats()
	if !st.Complete {
		t.Fatal("migration incomplete")
	}
	if durMirror <= durNormal {
		t.Fatalf("mirrored write (%v) not slower than plain write (%v)", durMirror, durNormal)
	}
	if st.MirroredBytes == 0 {
		t.Fatal("no mirror traffic recorded")
	}
	if st.ReleasedAt != st.ControlAt {
		t.Fatal("mirror migration must finish at control transfer")
	}
	if st.PulledChunks != 0 {
		t.Fatal("mirror mode must not pull")
	}
}

func TestMirrorControlWaitsForBulk(t *testing.T) {
	r := newRig()
	im := r.image(ModeMirror, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 32*mb) // bulk copy will need ~0.32s at the 100 MB/s NIC
		im.MigrationRequest(r.cl.Nodes[1])
		im.Sync(p) // immediate sync: must block until bulk done
	})
	r.run(t)
	st := im.Stats()
	if !st.Complete {
		t.Fatal("migration incomplete")
	}
	elapsed := st.ControlAt - st.RequestedAt
	if elapsed < 0.3 {
		t.Fatalf("control transfer after %v, want >= bulk copy time (~0.32s)", elapsed)
	}
}

func TestOnDemandReadPullsWithPriority(t *testing.T) {
	r := newRig()
	opts := DefaultOptions(ModeHybrid)
	opts.PullBatch = 2
	im := r.imageOpts(opts, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 32*mb)
		im.MigrationRequest(r.cl.Nodes[1])
		im.Sync(p) // everything left for the pull phase
		// Immediately read the LAST chunk — far from the head of the queue.
		im.Read(p, 31*mb, chunkSize)
		if !im.Complete() {
			// Fine: background pull still running; the read itself must have
			// been served already (we got here).
			st := im.Stats()
			if st.OnDemandPulls == 0 {
				t.Error("read of a remaining chunk did not trigger an on-demand pull")
			}
		}
	})
	r.run(t)
	if !im.Complete() {
		t.Fatal("migration incomplete")
	}
}

func TestDestinationWriteCancelsPull(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 32*mb)
		im.MigrationRequest(r.cl.Nodes[1])
		im.Sync(p)
		// Overwrite whole chunks at the destination right away: these must
		// not be pulled.
		im.Write(p, 16*mb, 8*mb)
	})
	r.run(t)
	st := im.Stats()
	if !st.Complete {
		t.Fatal("migration incomplete")
	}
	moved := st.PulledChunks + st.OnDemandPulls + st.PushedChunks
	if moved >= 128 {
		t.Fatalf("moved %d chunks despite 32 being overwritten at destination", moved)
	}
}

func TestDestinationPartialWriteRMWPullsFirst(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 4*mb)
		im.MigrationRequest(r.cl.Nodes[1])
		im.Sync(p)
		before := im.Stats().RMWStalls
		im.Write(p, 100, 1000) // partial write into a remaining chunk
		if im.Stats().RMWStalls != before+1 {
			t.Error("partial write to remaining chunk did not RMW-pull")
		}
	})
	r.run(t)
	if !im.Complete() {
		t.Fatal("migration incomplete")
	}
}

func TestPullPriorityOrderByWriteCount(t *testing.T) {
	r := newRig()
	opts := DefaultOptions(ModeHybrid)
	opts.Threshold = 1 // nothing written during migration is pushed again
	opts.PullBatch = 1
	im := r.imageOpts(opts, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 8*mb) // chunks 0..31
		im.MigrationRequest(r.cl.Nodes[1])
		// Make chunk 20 hottest, chunk 10 medium: they must arrive first.
		for i := 0; i < 5; i++ {
			im.Write(p, 20*chunkSize, chunkSize)
		}
		for i := 0; i < 3; i++ {
			im.Write(p, 10*chunkSize, chunkSize)
		}
		p.Sleep(0.001)
		im.Sync(p)
	})
	r.run(t)
	if !im.Complete() {
		t.Fatal("migration incomplete")
	}
	// We can't observe pull order directly, but with threshold=1 the two hot
	// chunks were excluded from push and must appear among pulls.
	st := im.Stats()
	if st.SkippedHot < 2 {
		t.Fatalf("skipped hot = %d, want >= 2", st.SkippedHot)
	}
}

func TestBasePrefetchFetchesHints(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Read(p, 40*mb, 8*mb) // cache base content at the source (hints)
		im.Write(p, 0, 1*mb)
		migrate(r, im, 1, 2, func(p *sim.Proc) {
			im.WaitComplete(p)
			p.Sleep(10) // let the base prefetcher finish
			// The prefetched chunks are local at the destination: reading
			// them now must not touch the repository.
			before := r.store.ReadBytes()
			im.Read(p, 40*mb, 8*mb)
			if r.store.ReadBytes() != before {
				t.Error("prefetched base content re-fetched from repository")
			}
		})
	})
	r.run(t)
	st := im.Stats()
	if !st.Complete {
		t.Fatal("migration incomplete")
	}
	if st.PrefetchBytes < 8*mb {
		t.Fatalf("prefetch bytes = %v, want >= 8 MB of hinted base content", st.PrefetchBytes)
	}
}

// TestBasePrefetchRunsAcrossWords: the hints are the runs of the source's
// local &^ modified, and the prefetcher skips the leading chunks of a run
// the destination wrote meanwhile. The runs cross 64-chunk word boundaries.
func TestBasePrefetchRunsAcrossWords(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Read(p, 40*chunkSize, 31*chunkSize)  // chunks 40..70 local
		im.Read(p, 190*chunkSize, 11*chunkSize) // chunks 190..200 local
		im.Write(p, 0, 4*chunkSize)             // chunks 0..3 modified
		im.Write(p, 55*chunkSize, chunkSize)    // splits 40..70 at 55
		// Hints: [40,54], [56,70], [190,200]. The first two take ~0.19 s at
		// the 40 MB/s prefetch cap; the destination overwrites 190..193
		// well before the prefetcher reaches the third.
		migrate(r, im, 1, 2, func(p *sim.Proc) {
			im.Write(p, 190*chunkSize, 4*chunkSize)
			im.WaitComplete(p)
			p.Sleep(10) // let the base prefetcher finish
			before := r.store.ReadBytes()
			im.Read(p, 40*chunkSize, 31*chunkSize)
			im.Read(p, 190*chunkSize, 11*chunkSize)
			if got := r.store.ReadBytes() - before; got != 0 {
				t.Errorf("hinted chunks re-fetched %v bytes from the repository", got)
			}
		})
	})
	r.run(t)
	st := im.Stats()
	if !st.Complete {
		t.Fatal("migration incomplete")
	}
	if want := float64((15 + 15 + 7) * chunkSize); st.PrefetchBytes != want {
		t.Fatalf("prefetch bytes = %v, want %v (runs 40..54, 56..70, 194..200)", st.PrefetchBytes, want)
	}
}

func TestBasePrefetchDisabled(t *testing.T) {
	r := newRig()
	opts := DefaultOptions(ModeHybrid)
	opts.BasePrefetch = false
	im := r.imageOpts(opts, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Read(p, 40*mb, 8*mb)
		im.Write(p, 0, 1*mb)
		migrate(r, im, 1, 2, nil)
	})
	r.run(t)
	if got := im.Stats().PrefetchBytes; got != 0 {
		t.Fatalf("prefetch bytes = %v, want 0 when disabled", got)
	}
}

func TestDedupReducesWireBytes(t *testing.T) {
	run := func(dedup bool) float64 {
		r := newRig()
		opts := DefaultOptions(ModeHybrid)
		opts.Dedup = dedup
		opts.PushBatch = 4 // small batches so later batches hit known content
		im := r.imageOpts(opts, 0)
		r.eng.Go("setup", func(p *sim.Proc) {
			// Many small writes -> recurring content IDs when dedup is on.
			for i := int64(0); i < 64; i++ {
				im.Write(p, i*chunkSize, chunkSize)
			}
			migrate(r, im, 1, 5, nil)
		})
		if err := r.eng.RunUntil(1e6); err != nil {
			panic(err)
		}
		r.eng.Shutdown()
		if !im.Complete() {
			panic("incomplete")
		}
		return im.Stats().PushedBytes + im.Stats().PulledBytes + im.Stats().OnDemandBytes
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("dedup did not reduce wire bytes: %v >= %v", with, without)
	}
}

func TestCompressionScalesWireBytes(t *testing.T) {
	r := newRig()
	opts := DefaultOptions(ModeHybrid)
	opts.CompressionRatio = 0.5
	opts.CompressBW = 1000 * mb
	im := r.imageOpts(opts, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 16*mb)
		migrate(r, im, 1, 5, nil)
	})
	r.run(t)
	st := im.Stats()
	want := 8 * float64(mb) // 16 MB at ratio 0.5
	if st.PushedBytes < want*0.9 || st.PushedBytes > want*1.1 {
		t.Fatalf("pushed wire bytes = %v, want ~%v", st.PushedBytes, want)
	}
}

func TestRepeatedMigrationsChain(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 8*mb)
		im.MigrationRequest(r.cl.Nodes[1])
		p.Sleep(2)
		im.Sync(p)
		im.WaitComplete(p)
		snap1 := im.cur.content.Snapshot()
		// Migrate again to a third node.
		im.Write(p, 8*mb, 4*mb)
		im.MigrationRequest(r.cl.Nodes[2])
		p.Sleep(2)
		im.Sync(p)
		im.WaitComplete(p)
		snap2 := im.cur.content.Snapshot()
		for c := 0; c < 32; c++ {
			if snap2[c] != snap1[c] {
				t.Errorf("chunk %d content changed across second migration", c)
			}
		}
	})
	r.run(t)
	if im.Node() != r.cl.Nodes[2] {
		t.Fatal("image did not end on node 2")
	}
}

// TestMigrationConsistencyProperty is the package's strongest check: for
// every mode, a randomized write workload runs before, during, and after a
// migration, and the destination's final content must exactly match a
// shadow model that replays the same writes.
func TestMigrationConsistencyProperty(t *testing.T) {
	for _, mode := range []Mode{ModeHybrid, ModeMirror, ModePostcopy} {
		mode := mode
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			r := newRig()
			im := r.image(mode, 0)
			nChunks := r.geo.Chunks()
			shadow := make([]uint64, nChunks)
			seq := uint64(0)
			writeAndShadow := func(p *sim.Proc, off, length int64) {
				im.Write(p, off, length)
				wr := chunk.Range{Off: off, Len: length}
				first, last := r.geo.Span(wr)
				for c := first; c <= last; c++ {
					seq++
					shadow[c] = 16 + seq
				}
			}
			r.eng.Go("workload", func(p *sim.Proc) {
				// Pre-migration writes.
				for i := 0; i < 10+rng.Intn(20); i++ {
					c := int64(rng.Intn(nChunks))
					writeAndShadow(p, c*chunkSize, chunkSize)
				}
				im.MigrationRequest(r.cl.Nodes[1])
				// Writes during the push phase.
				for i := 0; i < rng.Intn(30); i++ {
					c := int64(rng.Intn(nChunks))
					writeAndShadow(p, c*chunkSize, chunkSize)
					if rng.Intn(3) == 0 {
						p.Sleep(rng.Float64() * 0.05)
					}
				}
				p.Sleep(rng.Float64())
				im.Sync(p)
				// Writes and reads at the destination during the pull phase.
				for i := 0; i < rng.Intn(30); i++ {
					c := int64(rng.Intn(nChunks))
					if rng.Intn(2) == 0 {
						writeAndShadow(p, c*chunkSize, chunkSize)
					} else {
						im.Read(p, c*chunkSize, chunkSize)
					}
					if rng.Intn(3) == 0 {
						p.Sleep(rng.Float64() * 0.05)
					}
				}
				im.WaitComplete(p)
			})
			if err := r.eng.RunUntil(1e6); err != nil {
				return false
			}
			r.eng.Shutdown()
			if !im.Complete() {
				t.Logf("seed %d mode %v: migration incomplete", seed, mode)
				return false
			}
			got := im.cur.content.Snapshot()
			for c := 0; c < nChunks; c++ {
				if shadow[c] != 0 && got[c] != shadow[c] {
					t.Logf("seed %d mode %v: chunk %d content %d, want %d",
						seed, mode, c, got[c], shadow[c])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestTrafficTagsSeparated(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 16*mb)
		im.MigrationRequest(r.cl.Nodes[1])
		p.Sleep(0.1) // partial push
		im.Sync(p)
	})
	r.run(t)
	push := r.cl.Net.BytesByTag(flow.TagStoragePush)
	pull := r.cl.Net.BytesByTag(flow.TagStoragePull)
	if push == 0 || pull == 0 {
		t.Fatalf("expected both push (%v) and pull (%v) traffic", push, pull)
	}
	if mirror := r.cl.Net.BytesByTag(flow.TagMirror); mirror != 0 {
		t.Fatalf("unexpected mirror traffic %v", mirror)
	}
}

// TestModeNames: each mode renders as its strategy name.
func TestModeNames(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeHybrid: "our-approach", ModeMirror: "mirror", ModePostcopy: "postcopy", Mode(7): "mode(7)",
	} {
		if got := m.String(); got != want {
			t.Errorf("mode %d renders as %q, want %q", int(m), got, want)
		}
	}
}

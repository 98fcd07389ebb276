package hv

import (
	"testing"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/pfs"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/vm"
)

const (
	mb        = params.MB
	imageSize = 256 * mb
	ramSize   = 256 * mb
)

// rig is a two-node world with a PFS on a third node.
type rig struct {
	eng *sim.Engine
	cl  *fabric.Cluster
	fs  *pfs.FS
	v   *vm.VM
	geo chunk.Geometry
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.New()
	tb := params.DefaultTestbed()
	tb.NICBandwidth = 100 * mb
	tb.DiskBandwidth = 50 * mb
	tb.FabricBandwidth = 8000 * mb
	tb.NetLatency = 0
	tb.DiskLatency = 0
	cl := fabric.NewCluster(eng, 3, tb)
	fs := pfs.NewFS(cl, cl.Nodes[2:3], pfs.Params{StripeSize: 256 * params.KB})
	mem := vm.NewMemory(ramSize, 1*mb)
	v := vm.New(eng, "vm0", cl.Nodes[0], mem, 1)
	return &rig{eng: eng, cl: cl, fs: fs, v: v,
		geo: chunk.NewGeometry(imageSize, 256*params.KB)}
}

func hp() params.Hypervisor {
	h := params.DefaultHypervisor()
	h.MigrationSpeed = 100 * mb
	h.BootedFootprint = 32 * mb
	return h
}

// noopImage satisfies vm.DiskImage for memory-only migration tests.
type noopImage struct {
	geo   chunk.Geometry
	syncs int
}

func (n *noopImage) Read(p *sim.Proc, off, length int64)  {}
func (n *noopImage) Write(p *sim.Proc, off, length int64) {}
func (n *noopImage) Sync(p *sim.Proc)                     { n.syncs++ }
func (n *noopImage) Geometry() chunk.Geometry             { return n.geo }

func TestMemoryOnlyMigrationConverges(t *testing.T) {
	r := newRig(t)
	img := &noopImage{geo: r.geo}
	r.v.Image = img
	// 64 MB of touched memory, no dirtying: one round plus stop-and-copy.
	r.v.Mem.Alloc(64*mb, true)
	var res Result
	r.eng.Go("mig", func(p *sim.Proc) {
		res = Migrate(p, r.cl, r.v, r.cl.Nodes[1], hp(), nil, nil, nil, nil)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("static memory did not converge")
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	// 64 MB at 100 MB/s ~ 0.64s.
	want := 0.64
	got := res.ControlTransfer - res.Requested
	if got < want*0.9 || got > want*1.5 {
		t.Fatalf("migration time = %v, want ~%v", got, want)
	}
	if res.Downtime <= 0 || res.Downtime > 0.1 {
		t.Fatalf("downtime = %v, want small positive", res.Downtime)
	}
	if img.syncs != 1 {
		t.Fatalf("image synced %d times, want 1", img.syncs)
	}
	if r.v.Node != r.cl.Nodes[1] {
		t.Fatal("VM not rehomed")
	}
}

func TestDirtyingExtendsRounds(t *testing.T) {
	r := newRig(t)
	r.v.Image = &noopImage{geo: r.geo}
	reg := r.v.Mem.Alloc(128*mb, true)
	d := r.v.Mem.NewDirtier(reg, 30*mb) // dirties slower than the link
	d.SetActive(true, 0)
	var res Result
	r.eng.Go("mig", func(p *sim.Proc) {
		res = Migrate(p, r.cl, r.v, r.cl.Nodes[1], hp(), nil, nil, nil, nil)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("should converge: dirty rate < link rate")
	}
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d, want >= 2 with active dirtying", res.Rounds)
	}
	if res.MemoryBytes <= 128*mb {
		t.Fatalf("memory moved = %v, want > initial footprint (re-sent dirty pages)", res.MemoryBytes)
	}
}

func TestNonConvergenceHitsRoundCap(t *testing.T) {
	r := newRig(t)
	r.v.Image = &noopImage{geo: r.geo}
	reg := r.v.Mem.Alloc(200*mb, true)
	// Dirties faster than the 100 MB/s link over a big working set.
	d := r.v.Mem.NewDirtier(reg, 150*mb)
	d.SetActive(true, 0)
	h := hp()
	h.MaxRounds = 6
	var res Result
	r.eng.Go("mig", func(p *sim.Proc) {
		res = Migrate(p, r.cl, r.v, r.cl.Nodes[1], h, nil, nil, nil, nil)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("cannot converge when dirty rate > link rate")
	}
	if res.Rounds != 6 {
		t.Fatalf("rounds = %d, want cap 6", res.Rounds)
	}
	// Forced stop-and-copy moves a large final payload: downtime far above
	// the 30 ms target.
	if res.Downtime < 0.5 {
		t.Fatalf("downtime = %v, want large (forced)", res.Downtime)
	}
}

func TestDowntimeRespectsBudgetWhenConverged(t *testing.T) {
	r := newRig(t)
	r.v.Image = &noopImage{geo: r.geo}
	reg := r.v.Mem.Alloc(128*mb, true)
	d := r.v.Mem.NewDirtier(reg, 10*mb)
	d.SetActive(true, 0)
	var res Result
	r.eng.Go("mig", func(p *sim.Proc) {
		res = Migrate(p, r.cl, r.v, r.cl.Nodes[1], hp(), nil, nil, nil, nil)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("should converge")
	}
	// Device state (2 MB) rides in the downtime window: at 100 MB/s that is
	// 20 ms; budget is 30 ms for the dirty payload, so bound it loosely.
	if res.Downtime > 0.08 {
		t.Fatalf("downtime = %v, want <= ~2x budget", res.Downtime)
	}
}

func TestGuestPausedExactlyDuringDowntime(t *testing.T) {
	r := newRig(t)
	r.v.Image = &noopImage{geo: r.geo}
	r.v.Mem.Alloc(64*mb, true)
	var res Result
	r.eng.Go("mig", func(p *sim.Proc) {
		res = Migrate(p, r.cl, r.v, r.cl.Nodes[1], hp(), nil, nil, nil, nil)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.v.TotalDowntime(); got != res.Downtime {
		t.Fatalf("VM downtime %v != result downtime %v", got, res.Downtime)
	}
	if r.v.Paused() {
		t.Fatal("VM still paused after migration")
	}
}

func TestCOWImageReadWrite(t *testing.T) {
	r := newRig(t)
	base := r.fs.Create("base", imageSize)
	ids := make([]pfs.ContentID, base.Stripes())
	for i := range ids {
		ids[i] = pfs.ContentID(i + 1)
	}
	base.PutContent(ids)
	im := NewCOWImage(r.cl, r.cl.Nodes[0], r.geo, base, nil)
	r.eng.Go("io", func(p *sim.Proc) {
		im.Read(p, 0, 1*mb) // base read via PFS
		if im.BaseReadBytes != 1*mb {
			t.Errorf("base reads = %v, want 1 MB", im.BaseReadBytes)
		}
		im.Write(p, 0, 1*mb) // full chunks: no RMW
		if im.RMWFetches != 0 {
			t.Errorf("RMW fetches = %d, want 0 for aligned write", im.RMWFetches)
		}
		im.Read(p, 0, 1*mb) // now local
		if im.LocalReadBytes != 1*mb {
			t.Errorf("local reads = %v, want 1 MB", im.LocalReadBytes)
		}
		// Partial write to an unallocated chunk triggers COW RMW.
		im.Write(p, 4*mb+100, 1000)
		if im.RMWFetches != 1 {
			t.Errorf("RMW fetches = %d, want 1", im.RMWFetches)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if im.LocalSet().Count() != 5 {
		t.Fatalf("local chunks = %d, want 5 (4 aligned + 1 COW)", im.LocalSet().Count())
	}
}

func TestBlockMigrationMovesAllocatedChunks(t *testing.T) {
	r := newRig(t)
	base := r.fs.Create("base", imageSize)
	im := NewCOWImage(r.cl, r.cl.Nodes[0], r.geo, base, nil)
	r.v.Image = im
	r.v.Mem.Alloc(32*mb, true)
	var res Result
	r.eng.Go("driver", func(p *sim.Proc) {
		im.Write(p, 0, 64*mb) // allocate 64 MB locally
		res = Migrate(p, r.cl, r.v, r.cl.Nodes[1], hp(), im, nil, nil, nil)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if res.BlockBytes < 64*mb {
		t.Fatalf("block bytes = %v, want >= 64 MB bulk", res.BlockBytes)
	}
	if im.Node() != r.cl.Nodes[1] {
		// MoveTo is the orchestrator's job; here FinishBlockMigration only
		// stops tracking. Move it manually to mimic the orchestrator.
		im.MoveTo(r.cl.Nodes[1])
	}
	if got := r.cl.Net.BytesByTag(flow.TagBlockMig); got < 64*mb {
		t.Fatalf("block migration traffic = %v, want >= 64 MB", got)
	}
}

func TestBlockMigrationRetransfersDirtyBlocks(t *testing.T) {
	r := newRig(t)
	base := r.fs.Create("base", imageSize)
	im := NewCOWImage(r.cl, r.cl.Nodes[0], r.geo, base, nil)
	r.v.Image = im
	r.v.Mem.Alloc(16*mb, true)
	var res Result
	r.eng.Go("driver", func(p *sim.Proc) {
		im.Write(p, 0, 64*mb)
		// Keep rewriting one region while migration runs.
		done := false
		r.eng.Go("writer", func(wp *sim.Proc) {
			for !done {
				im.Write(wp, 0, 8*mb)
				wp.Sleep(0.2)
			}
		})
		res = Migrate(p, r.cl, r.v, r.cl.Nodes[1], hp(), im, nil, nil, nil)
		done = true
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Rewrites force block re-transfers beyond the 64 MB bulk.
	if res.BlockBytes <= 64*mb {
		t.Fatalf("block bytes = %v, want > 64 MB (dirty block retransfer)", res.BlockBytes)
	}
}

func TestSharedImageAllIOOverNetwork(t *testing.T) {
	r := newRig(t)
	base := r.fs.Create("base", imageSize)
	snap := r.fs.Create("snap", imageSize)
	im := NewSharedImage(r.cl, r.cl.Nodes[0], r.geo, base, snap)
	r.eng.Go("io", func(p *sim.Proc) {
		im.Write(p, 0, 4*mb)
		im.Read(p, 0, 4*mb)    // from snapshot
		im.Read(p, 8*mb, 1*mb) // from base
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.cl.Net.BytesByTag(flow.TagPFS); got != 9*mb {
		t.Fatalf("PFS traffic = %v, want 9 MB (4 write + 5 read)", got)
	}
	snapChunk := im.ContentSnapshot()[0]
	if snapChunk == 0 {
		t.Fatal("snapshot content not recorded")
	}
}

func TestSharedImageMigrationIsMemoryOnly(t *testing.T) {
	r := newRig(t)
	base := r.fs.Create("base", imageSize)
	snap := r.fs.Create("snap", imageSize)
	im := NewSharedImage(r.cl, r.cl.Nodes[0], r.geo, base, snap)
	r.v.Image = im
	r.v.Mem.Alloc(64*mb, true)
	var res Result
	r.eng.Go("driver", func(p *sim.Proc) {
		im.Write(p, 0, 32*mb)
		res = Migrate(p, r.cl, r.v, r.cl.Nodes[1], hp(), nil, nil, nil, nil)
		im.MoveTo(r.v.Node)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if res.BlockBytes != 0 {
		t.Fatalf("block bytes = %v, want 0", res.BlockBytes)
	}
	if im.Node() != r.cl.Nodes[1] {
		t.Fatal("image client side not rehomed")
	}
	// Content written before migration is still visible after (shared).
	if im.ContentSnapshot()[0] == 0 {
		t.Fatal("shared content lost across migration")
	}
}

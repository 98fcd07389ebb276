package core

import (
	"testing"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// TestSyncWithoutMigrationIsFlushOnly exercises the non-migrating Sync path.
func TestSyncWithoutMigrationIsFlushOnly(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("io", func(p *sim.Proc) {
		im.Write(p, 0, 1*mb)
		im.Sync(p) // must be a no-op for migration state
	})
	r.run(t)
	if im.Stats().Complete {
		t.Fatal("sync without migration marked a migration complete")
	}
	if im.Node() != r.cl.Nodes[0] {
		t.Fatal("sync moved the image")
	}
}

// TestMigrationWithEmptyModifiedSet: a freshly deployed VM with no writes
// migrates storage instantly (nothing to transfer).
func TestMigrationWithEmptyModifiedSet(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("hv", func(p *sim.Proc) {
		im.MigrationRequest(r.cl.Nodes[1])
		p.Sleep(0.5)
		im.Sync(p)
	})
	r.run(t)
	st := im.Stats()
	if !st.Complete {
		t.Fatal("empty migration incomplete")
	}
	if st.PushedChunks+st.PulledChunks+st.OnDemandPulls != 0 {
		t.Fatal("moved chunks despite empty modified set")
	}
	if st.ReleasedAt != st.ControlAt {
		t.Fatal("empty migration should release at control transfer")
	}
}

// TestWholeImageWrite covers span arithmetic at the image boundary.
func TestWholeImageWrite(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("io", func(p *sim.Proc) {
		im.Write(p, 0, imageSize)
		im.Read(p, 0, imageSize)
	})
	r.run(t)
	if im.ModifiedCount() != r.geo.Chunks() {
		t.Fatalf("modified = %d, want all %d", im.ModifiedCount(), r.geo.Chunks())
	}
}

// TestReadDuringPushPhaseStaysLocal: reads at the source during the push
// phase never touch the destination or the repository for local chunks.
func TestReadDuringPushPhaseStaysLocal(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 8*mb)
		im.MigrationRequest(r.cl.Nodes[1])
		before := r.store.ReadBytes()
		im.Read(p, 0, 8*mb)
		if r.store.ReadBytes() != before {
			t.Error("source read hit the repository during push phase")
		}
		p.Sleep(2)
		im.Sync(p)
	})
	r.run(t)
	if !im.Complete() {
		t.Fatal("incomplete")
	}
}

// TestOnDestInstallCallback observes installs for pushed and pulled chunks.
func TestOnDestInstallCallback(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	var installed int64
	im.OnDestInstall = func(off, length int64) { installed += length }
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 8*mb)
		im.MigrationRequest(r.cl.Nodes[1])
		p.Sleep(0.05) // partial push; rest pulls
		im.Sync(p)
	})
	r.run(t)
	if !im.Complete() {
		t.Fatal("incomplete")
	}
	if installed < 8*mb {
		t.Fatalf("install callback saw %d bytes, want >= 8 MB", installed)
	}
}

// TestForEachLocalRangeCoversLocalSet: ranges reported exactly tile the
// local chunk set.
func TestForEachLocalRangeCoversLocalSet(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("io", func(p *sim.Proc) {
		im.Write(p, 0, 2*mb)
		im.Write(p, 10*mb, 1*mb)
	})
	r.run(t)
	var covered int64
	im.ForEachLocalRange(func(off, length int64) {
		first, last := r.geo.Span(chunk.Range{Off: off, Len: length})
		covered += int64(last-first+1) * r.geo.ChunkSize
	})
	want := int64(im.ModifiedCount()) * r.geo.ChunkSize
	if covered != want {
		t.Fatalf("ranges cover %d bytes, want %d", covered, want)
	}
}

// TestPostcopyWriteCountsStillTracked: the postcopy baseline tracks write
// counts during its passive phase so the pull phase can prioritize.
func TestPostcopyWriteCountsStillTracked(t *testing.T) {
	r := newRig()
	im := r.image(ModePostcopy, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 4*mb)
		im.MigrationRequest(r.cl.Nodes[1])
		for i := 0; i < 5; i++ {
			im.Write(p, 0, chunkSize) // heat chunk 0
		}
		p.Sleep(0.01)
		im.Sync(p)
	})
	r.run(t)
	if !im.Complete() {
		t.Fatal("incomplete")
	}
	if im.Stats().PulledChunks+im.Stats().OnDemandPulls == 0 {
		t.Fatal("nothing pulled")
	}
}

// TestMirrorWriteBeforeBulkReachesDest: content mirrored synchronously must
// never be overwritten by a later (stale) bulk install.
func TestMirrorWriteBeforeBulkReachesDest(t *testing.T) {
	r := newRig()
	opts := DefaultOptions(ModeMirror)
	opts.PullBatch = 1
	im := r.imageOpts(opts, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 16*mb) // bulk payload
		im.MigrationRequest(r.cl.Nodes[1])
		// Rewrite chunk 0 immediately: the mirror write races the bulk copy.
		im.Write(p, 0, chunkSize)
		p.Sleep(5)
		im.Sync(p)
	})
	r.run(t)
	if !im.Complete() {
		t.Fatal("incomplete")
	}
	// Chunk 0's content after migration must be the rewrite (the last write
	// has the highest content ID among chunk 0's writes).
	snap := im.cur.content.Snapshot()
	if snap[0] == 0 {
		t.Fatal("chunk 0 lost content")
	}
	// Rewrite was the 65th write overall (16 MB = 64 chunks, then chunk 0).
	// All content IDs are ordered by write sequence; chunk 0's final ID must
	// exceed chunk 63's.
	if snap[0] <= snap[63] {
		t.Fatalf("stale bulk content overwrote a mirrored write: chunk0=%d chunk63=%d", snap[0], snap[63])
	}
}

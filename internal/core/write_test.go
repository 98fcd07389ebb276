package core

import (
	"slices"
	"testing"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// checkRun fails t unless s holds exactly the chunks [first, last]; a nil
// set or last < first stands for the empty set.
func checkRun(t *testing.T, name string, s *chunk.Set, first, last chunk.Idx) {
	t.Helper()
	n := 0
	if s != nil {
		n = s.Count()
		for c := first; c <= last; c++ {
			if !s.Contains(c) {
				t.Errorf("%s lacks chunk %d", name, c)
				return
			}
		}
	}
	if want := max(int(last-first)+1, 0); n != want {
		t.Errorf("%s holds %d chunks, want %d ([%d, %d])", name, n, want, first, last)
	}
}

// TestWriteBookkeepingByRole makes one write, misaligned at both ends and
// spanning 136 chunks across three bitmap word edges, in each role the
// manager can be in, and checks every set, count and content ID the write
// keeps. RMWStalls counts the end chunks that are partial and not local.
func TestWriteBookkeepingByRole(t *testing.T) {
	const first, last = chunk.Idx(60), chunk.Idx(195)
	off := int64(first)*chunkSize + 1000
	length := int64(last)*chunkSize + 5000 - off
	type run [2]chunk.Idx
	none, written := run{0, -1}, run{first, last}
	rows := []struct {
		name  string
		mode  Mode
		setup func(p *sim.Proc, r *rig, im *Image) // puts the image in its role
		rmw   int
		// remaining and dstFresh as they must stand after the write.
		remaining, dstFresh run
		counted             bool // the write is counted as a source-role write
	}{
		{name: "normal operation", mode: ModeHybrid, rmw: 2, remaining: none, dstFresh: none},
		{
			name: "migrating hybrid source",
			mode: ModeHybrid,
			setup: func(p *sim.Proc, r *rig, im *Image) {
				im.Write(p, int64(first)*chunkSize, chunkSize) // first end local
				im.MigrationRequest(r.cl.Nodes[1])
			},
			rmw: 1, remaining: written, dstFresh: none, counted: true,
		},
		{
			name: "mirror-active source",
			mode: ModeMirror,
			setup: func(p *sim.Proc, r *rig, im *Image) {
				im.Write(p, int64(first)*chunkSize, chunkSize) // both ends local
				im.Write(p, int64(last)*chunkSize, chunkSize)
				im.MigrationRequest(r.cl.Nodes[1])
			},
			rmw: 0, remaining: none, dstFresh: written, counted: true,
		},
		{
			name: "pulling destination",
			mode: ModeHybrid,
			setup: func(p *sim.Proc, r *rig, im *Image) {
				// The source owes chunks 58-62. The background pull is held,
				// as an on-demand pull holds it, so the destination is still
				// pulling when the write lands: the first end is pulled on
				// demand, the last end fetched from the repository, and the
				// write cancels the pulls of 61 and 62.
				im.Write(p, int64(first-2)*chunkSize, 5*chunkSize)
				im.MigrationRequest(r.cl.Nodes[1])
				im.pullSuspend++
				im.Sync(p)
			},
			rmw: 2, remaining: run{first - 2, first - 1}, dstFresh: written,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newRig()
			im := r.image(row.mode, 0)
			r.eng.Go("io", func(p *sim.Proc) {
				if row.setup != nil {
					row.setup(p, r, im)
				}
				before := im.Stats().RMWStalls
				im.Write(p, off, length)
				if got := im.Stats().RMWStalls - before; got != row.rmw {
					t.Errorf("RMWStalls = %d, want %d", got, row.rmw)
				}
				checkRun(t, "local", im.cur.local, first, last)
				checkRun(t, "modified", im.cur.modified, first, last)
				checkRun(t, "remaining", im.remaining, row.remaining[0], row.remaining[1])
				checkRun(t, "dstFresh", im.dstFresh, row.dstFresh[0], row.dstFresh[1])
				if im.writeCount == nil {
					if row.counted {
						t.Error("no write counts kept for a source-role write")
					}
				} else {
					for c := chunk.Idx(0); int(c) < im.geo.Chunks(); c++ {
						want := uint32(0)
						if row.counted && c >= first && c <= last {
							want = 1
						}
						if got := im.writeCount.Get(c); got != want {
							t.Errorf("write count of chunk %d = %d, want %d", c, got, want)
							break
						}
					}
				}
				prev := im.cur.content.At(int(first) - 1)
				for c := first; c <= last; c++ {
					id := im.cur.content.At(int(c))
					if id <= prev {
						t.Errorf("content ID of chunk %d = %d, not above %d", c, id, prev)
						break
					}
					prev = id
				}
				if row.mode == ModeMirror {
					// Mirrored content is identical at the destination.
					checkRun(t, "destination local", im.dst.local, first, last)
					checkRun(t, "destination modified", im.dst.modified, first, last)
					for c := first; c <= last; c++ {
						if im.dst.content.At(int(c)) != im.cur.content.At(int(c)) {
							t.Errorf("chunk %d: destination content %d, source %d", c,
								im.dst.content.At(int(c)), im.cur.content.At(int(c)))
							break
						}
					}
				}
				if im.pullSuspend > 0 {
					im.pullSuspend--
					im.pullResume.Broadcast(im.eng)
				}
			})
			r.run(t)
		})
	}
}

// TestMirrorWritePooledFlow: with a flow waiting in the net's pool, a
// mirrored write takes that flow for its transfer, registers it for Abort
// while it is on the wire, and returns it to the pool once it completes: a
// warmed mirrored write allocates no flow.
func TestMirrorWritePooledFlow(t *testing.T) {
	r := newRig()
	im := r.image(ModeMirror, 0)
	warm := r.cl.Net.AcquireFlow()
	r.cl.Net.ReleaseFlow(warm)
	var onWire []*flow.Flow
	r.eng.Go("writer", func(p *sim.Proc) {
		im.MigrationRequest(r.cl.Nodes[1])
		r.eng.After(0, func() { onWire = slices.Clone(im.xferFlows) })
		im.Write(p, 0, chunkSize) // whole chunk: no read-modify-write first
		if got := r.cl.Net.AcquireFlow(); got != warm {
			t.Error("the mirror flow did not return to the pool")
		}
		p.Sleep(1)
		im.Sync(p)
	})
	r.run(t)
	if !slices.Contains(onWire, warm) {
		t.Fatalf("the mirror write did not take the pooled flow: on the wire %v", onWire)
	}
	if st := im.Stats(); !st.Complete || st.MirroredBytes != chunkSize {
		t.Fatalf("complete %v, mirrored %g bytes; want true, %d", st.Complete, st.MirroredBytes, chunkSize)
	}
}

// BenchmarkImageWrite writes 200 MB in 256 KB chunks to a 1 GB image, the
// shape of one CM1 output dump, while the manager is idle and while it is a
// migrating source. The source is passive (postcopy): it keeps the same
// write counts and remaining set as a hybrid source, without a pusher
// adding its transfers to the timing.
func BenchmarkImageWrite(b *testing.B) {
	const size, dump = 1024 * mb, 200 * mb
	for _, bc := range []struct {
		name    string
		migrate bool
	}{{"idle", false}, {"migrating-source", true}} {
		b.Run(bc.name, func(b *testing.B) {
			r := newRig()
			r.base = r.store.Create("big.img", size)
			r.geo = chunk.NewGeometry(size, chunkSize)
			im := r.image(ModePostcopy, 0)
			if bc.migrate {
				im.MigrationRequest(r.cl.Nodes[1])
			}
			r.eng.Go("io", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					im.Write(p, int64(i%5)*dump, dump)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := r.eng.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			r.eng.Shutdown()
		})
	}
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hybridmig/hybridmig/internal/sim"
)

// runUntilQuiet drains the engine without shutting it down, so a test can
// keep scheduling work on the same rig afterwards.
func runUntilQuiet(t *testing.T, r *rig) {
	t.Helper()
	if err := r.eng.RunUntil(1e6); err != nil {
		t.Fatal(err)
	}
}

// TestAbortIdleIsNoop: aborting with no migration in flight reports false.
func TestAbortIdleIsNoop(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	if im.Abort("noop") {
		t.Fatal("Abort on idle image reported true")
	}
}

// TestAbortPushPhaseCleanup: a fault during the push phase must cancel the
// in-flight push, leave zero active flows and no pending simulation work,
// keep I/O control at the source, and leave the image ready for a clean
// retry that converges to the same state as an undisturbed migration.
func TestAbortPushPhaseCleanup(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 32*mb) // 128 chunks; the local write takes ~0.64 s
		im.MigrationRequest(r.cl.Nodes[1])
	})
	// The push (32 MB over a 100 MB/s NIC) runs from ~0.64 s to ~0.96 s;
	// abort in the middle of it.
	r.eng.At(0.8, func() {
		if !im.Abort("dest-crash") {
			t.Error("Abort found no migration in flight")
		}
		st := im.Stats()
		if !st.Aborted {
			t.Error("stats not marked aborted")
		}
		if st.WireBytes() <= 0 {
			t.Error("aborted attempt wasted no wire bytes")
		}
		if im.Node() != r.cl.Nodes[0] {
			t.Error("I/O control left the source")
		}
	})
	runUntilQuiet(t, r)
	// Cleanup: nothing may linger — no active flows, no timers, no live
	// processes.
	if n := r.cl.Net.ActiveFlows(); n != 0 {
		t.Fatalf("active flows after abort = %d, want 0", n)
	}
	if n := r.eng.PendingEvents(); n != 0 {
		t.Fatalf("pending events after abort = %d, want 0", n)
	}
	if n := r.eng.LiveProcs(); n != 0 {
		t.Fatalf("live processes after abort = %d, want 0", n)
	}

	// Reference: an undisturbed migration of the same content on a fresh rig.
	r2 := newRig()
	ref := r2.image(ModeHybrid, 0)
	r2.eng.Go("ref", func(p *sim.Proc) {
		ref.Write(p, 0, 32*mb)
		ref.MigrationRequest(r2.cl.Nodes[1])
		p.Sleep(5)
		ref.Sync(p)
		ref.WaitComplete(p)
	})
	r2.run(t)

	// Retry on the aborted rig: must converge to the reference state.
	r.eng.Go("retry", func(p *sim.Proc) {
		im.MigrationRequest(r.cl.Nodes[1])
		p.Sleep(5)
		im.Sync(p)
		im.WaitComplete(p)
	})
	runUntilQuiet(t, r)
	r.eng.Shutdown()
	if !im.Complete() {
		t.Fatal("retry did not complete")
	}
	if im.Node() != r.cl.Nodes[1] {
		t.Fatal("retry did not move I/O control to the destination")
	}
	got, want := im.cur.content.Snapshot(), ref.cur.content.Snapshot()
	for c := range got {
		if got[c] != want[c] {
			t.Fatalf("chunk %d content %d after retry, reference %d", c, got[c], want[c])
		}
	}
	if st := im.Stats(); st.Aborted {
		t.Fatal("retry attempt inherited the aborted flag")
	}
}

// TestAbortPullPhaseFallsBackToSource: a destination crash after control
// transfer must cancel pulls, return I/O control to the source replica, and
// release parked on-demand accesses.
func TestAbortPullPhaseFallsBackToSource(t *testing.T) {
	r := newRig()
	im := r.image(ModePostcopy, 0) // nothing pushed: everything pulls
	readDone := false
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 32*mb) // done at ~0.64 s
		im.MigrationRequest(r.cl.Nodes[1])
		im.Sync(p) // immediate control transfer; the pull phase runs ~0.64-1.0 s
		// An on-demand read for a chunk the crash may strand.
		im.Read(p, 20*mb, chunkSize)
		readDone = true
	})
	r.eng.At(0.8, func() {
		if im.Node() != r.cl.Nodes[1] {
			t.Error("control transfer did not reach the destination before the fault")
		}
		if !im.Abort("dest-crash") {
			t.Error("Abort found no migration in flight")
		}
		if im.Node() != r.cl.Nodes[0] {
			t.Error("I/O control did not fall back to the source")
		}
	})
	runUntilQuiet(t, r)
	r.eng.Shutdown()
	if !readDone {
		t.Fatal("on-demand read stayed parked after the abort")
	}
	if n := r.cl.Net.ActiveFlows(); n != 0 {
		t.Fatalf("active flows after abort = %d, want 0", n)
	}
	if n := r.eng.LiveProcs(); n != 0 {
		t.Fatalf("live processes after abort = %d, want 0", n)
	}
	if im.Complete() {
		t.Fatal("aborted migration reported complete")
	}
	// Source content intact: every written chunk still has its content.
	snap := im.cur.content.Snapshot()
	for c := 0; c < 128; c++ {
		if snap[c] == 0 {
			t.Fatalf("chunk %d lost content in the fallback", c)
		}
	}
}

// TestAbortMirrorReleasesBulkGate: a fault during the mirror bulk copy must
// open the bulk gate (so a stop-gate waiter wakes) without completing.
func TestAbortMirrorReleasesBulkGate(t *testing.T) {
	r := newRig()
	im := r.image(ModeMirror, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 32*mb) // done at ~0.64 s; bulk copy follows
		im.MigrationRequest(r.cl.Nodes[1])
	})
	r.eng.At(0.8, func() {
		if !im.Abort("dest-crash") {
			t.Error("Abort found no migration in flight")
		}
		if !im.BulkDoneGate().IsOpen() {
			t.Error("bulk gate still closed after abort")
		}
	})
	runUntilQuiet(t, r)
	r.eng.Shutdown()
	if im.Complete() {
		t.Fatal("aborted mirror migration reported complete")
	}
	if n := r.cl.Net.ActiveFlows(); n != 0 {
		t.Fatalf("active flows after abort = %d, want 0", n)
	}
}

// TestAbortRetryConsistencyProperty is the randomized abort/retry harness at
// the manager level: random writes race a migration that is aborted at a
// random instant and then retried; the retried migration must complete with
// every chunk holding exactly the content of its last write (each chunk
// installed exactly once on the surviving owner — nothing lost to the abort,
// nothing duplicated by the retry).
func TestAbortRetryConsistencyProperty(t *testing.T) {
	for _, mode := range []Mode{ModeHybrid, ModePostcopy, ModeMirror} {
		mode := mode
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			r := newRig()
			im := r.image(mode, 0)
			nChunks := r.geo.Chunks()
			shadow := make([]uint64, nChunks)
			seq := uint64(0)
			// The workload only writes while I/O control is at the source
			// (before control transfer, or after a fallback), so the shadow
			// is exact: destination-phase writes would be lost with the
			// crashed destination and are not modeled here.
			write := func(p *sim.Proc, c int64) {
				im.Write(p, c*chunkSize, chunkSize)
				seq++
				shadow[c] = 16 + seq
			}
			abortAt := 0.05 + rng.Float64()*1.5
			r.eng.At(abortAt, func() { im.Abort("fault") })
			r.eng.Go("workload", func(p *sim.Proc) {
				for i := 0; i < 10+rng.Intn(20); i++ {
					write(p, int64(rng.Intn(nChunks)))
				}
				// Attempt 1: may be aborted during push, sync, or pull.
				im.MigrationRequest(r.cl.Nodes[1])
				p.Sleep(rng.Float64() * 0.4)
				im.Sync(p)
				im.WaitComplete(p)
				if !im.Complete() {
					// Aborted: I/O control is back at (or still at) node 0.
					if im.Node() != r.cl.Nodes[0] {
						t.Errorf("seed %d mode %v: fallback landed on %v", seed, mode, im.Node())
					}
					for i := 0; i < rng.Intn(10); i++ {
						write(p, int64(rng.Intn(nChunks)))
					}
					// Retry after a backoff; no fault this time.
					p.Sleep(0.2)
					im.MigrationRequest(r.cl.Nodes[1])
					p.Sleep(rng.Float64() * 0.2)
					im.Sync(p)
					im.WaitComplete(p)
				}
			})
			if err := r.eng.RunUntil(1e6); err != nil {
				t.Logf("seed %d mode %v: %v", seed, mode, err)
				return false
			}
			r.eng.Shutdown()
			if !im.Complete() {
				t.Logf("seed %d mode %v: retry incomplete", seed, mode)
				return false
			}
			if im.Node() != r.cl.Nodes[1] {
				t.Logf("seed %d mode %v: final owner %v", seed, mode, im.Node())
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
		if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

// TestAbortTwiceSecondIsNoop: only the first abort of an attempt acts.
func TestAbortTwiceSecondIsNoop(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 8*mb) // done at ~0.16 s; the source then idles in push phase
		im.MigrationRequest(r.cl.Nodes[1])
	})
	r.eng.At(0.5, func() {
		if !im.Abort("first") {
			t.Error("first abort missed")
		}
		if im.Abort("second") {
			t.Error("second abort acted on an idle image")
		}
	})
	r.run(t)
}

// TestAbortThenImmediateRetrySameInstant: Abort promises "a retry can be
// requested immediately". The stale push process of the aborted attempt —
// woken by its canceled flow but scheduled BEHIND the abort+re-request —
// must touch nothing of the new attempt: no wire bytes credited, no chunks
// installed, no shared push state clobbered.
func TestAbortThenImmediateRetrySameInstant(t *testing.T) {
	r := newRig()
	im := r.image(ModeHybrid, 0)
	r.eng.Go("setup", func(p *sim.Proc) {
		im.Write(p, 0, 32*mb)
		im.MigrationRequest(r.cl.Nodes[1])
	})
	// Mid-push: abort and re-request in the same engine callback, before
	// the canceled push process gets to run.
	r.eng.At(0.8, func() {
		if !im.Abort("dest-crash") {
			t.Error("Abort found no migration in flight")
		}
		im.MigrationRequest(r.cl.Nodes[1])
		if st := im.Stats(); st.PushedBytes != 0 || st.PushedChunks != 0 {
			t.Errorf("fresh attempt born with pushed=%v/%d", st.PushedBytes, st.PushedChunks)
		}
	})
	r.eng.At(0.8001, func() {
		// The stale process has run by now; the new attempt's stats must
		// still be clean of the canceled batch, and the destination must
		// not hold chunks no live flow delivered.
		st := im.Stats()
		if st.PushedChunks >= 64 {
			t.Errorf("stale push credited its canceled batch: pushed=%v/%d",
				st.PushedBytes, st.PushedChunks)
		}
	})
	r.eng.Go("sync", func(p *sim.Proc) {
		p.Sleep(6)
		im.Sync(p)
		im.WaitComplete(p)
	})
	runUntilQuiet(t, r)
	r.eng.Shutdown()
	if !im.Complete() {
		t.Fatal("immediate retry did not complete")
	}
	// Content must be exactly the 128 written chunks, once each.
	snap := im.cur.content.Snapshot()
	for c := 0; c < 128; c++ {
		if snap[c] == 0 {
			t.Fatalf("chunk %d lost in immediate retry", c)
		}
	}
}

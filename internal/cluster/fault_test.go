package cluster

import (
	"errors"
	"testing"

	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sched"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// TestAbortMigrationMidFlightThenRetry injects a destination crash into
// every approach's migration mid-flight, checks the attempt fails with
// ErrMigrationAborted and the VM stays at the source, then retries to
// completion on the same instance.
func TestAbortMigrationMidFlightThenRetry(t *testing.T) {
	for _, a := range Approaches() {
		a := a
		t.Run(string(a), func(t *testing.T) {
			tb := smallTB()
			inst := tb.Launch("vm0", 0, a)
			tb.Eng.Go("workload", func(p *sim.Proc) {
				f := inst.Guest.FS.Create("data", 64*params.MB)
				for i := 0; i < 8; i++ {
					inst.Guest.FS.Write(p, f, int64(i)*8*params.MB, 8*params.MB)
					p.Sleep(0.5)
				}
			})
			var firstErr, retryErr error
			tb.Eng.Go("middleware", func(p *sim.Proc) {
				p.Sleep(2)
				firstErr = tb.MigrateInstance(p, inst, 1)
				if firstErr != nil {
					p.Sleep(1) // backoff
					retryErr = tb.MigrateInstance(p, inst, 1)
				}
			})
			// The fault fires shortly after the migration request: every
			// approach is still moving memory or storage then.
			tb.Eng.At(2.5, func() {
				if !tb.AbortMigration(inst, "dest-crash") {
					t.Error("AbortMigration found nothing in flight")
				}
				if inst.VM.Node != tb.Cl.Nodes[0] && !inst.VM.Paused() {
					// The VM may transiently be paused in stop-and-copy, but
					// it must not be live at the destination after an abort.
					t.Error("VM live off-source immediately after abort")
				}
			})
			if err := tb.Eng.RunUntil(1e5); err != nil {
				t.Fatal(err)
			}
			tb.Eng.Shutdown()
			if !errors.Is(firstErr, ErrMigrationAborted) {
				t.Fatalf("first attempt error = %v, want ErrMigrationAborted", firstErr)
			}
			if retryErr != nil {
				t.Fatalf("retry failed: %v", retryErr)
			}
			if !inst.Migrated || inst.VM.Node != tb.Cl.Nodes[1] {
				t.Fatal("retry did not complete on the destination")
			}
			if inst.Attempts != 2 || inst.Aborts != 1 {
				t.Fatalf("attempts=%d aborts=%d, want 2,1", inst.Attempts, inst.Aborts)
			}
			if inst.AbortedBytes <= 0 {
				t.Fatal("aborted attempt wasted no bytes")
			}
		})
	}
}

// TestAbortMigrationIdle: no in-flight migration means nothing to abort.
func TestAbortMigrationIdle(t *testing.T) {
	tb := smallTB()
	inst := tb.Launch("vm0", 0, OurApproach)
	if tb.AbortMigration(inst, "noop") {
		t.Fatal("AbortMigration acted on an idle instance")
	}
}

// TestMigrateAllRetryCompletesCampaign: a campaign whose jobs are hit by
// one fault each still terminates with retries recorded.
func TestMigrateAllRetryCompletesCampaign(t *testing.T) {
	tb := smallTB()
	a := tb.Launch("vma", 0, OurApproach)
	b := tb.Launch("vmb", 1, Postcopy)
	for _, inst := range []*Instance{a, b} {
		inst := inst
		tb.Eng.Go(inst.Name+"/wl", func(p *sim.Proc) {
			f := inst.Guest.FS.Create("data", 32*params.MB)
			for i := 0; i < 6; i++ {
				inst.Guest.FS.Write(p, f, int64(i)*4*params.MB, 4*params.MB)
				p.Sleep(0.5)
			}
		})
	}
	var c *metrics.Campaign
	tb.Eng.Go("campaign", func(p *sim.Proc) {
		c = tb.MigrateAll(p,
			[]MigrationRequest{{Inst: a, DstIdx: 2}, {Inst: b, DstIdx: 3}},
			sched.Serial{}, sched.Retry{MaxAttempts: 3, Backoff: 0.5})
	})
	tb.Eng.At(0.7, func() {
		if !tb.AbortMigration(a, "dest-crash") {
			t.Error("fault missed the in-flight migration")
		}
	})
	if err := tb.Eng.RunUntil(1e5); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Shutdown()
	if c == nil {
		t.Fatal("campaign did not complete")
	}
	if c.Retries != 1 || c.ExhaustedJobs != 0 {
		t.Fatalf("retries=%d exhausted=%d, want 1,0", c.Retries, c.ExhaustedJobs)
	}
	if !a.Migrated || !b.Migrated {
		t.Fatal("campaign left a VM unmigrated")
	}
	if c.WastedBytes <= 0 {
		t.Fatal("campaign recorded no wasted bytes for the aborted attempt")
	}
	if c.JobStats[0].Attempts != 2 || c.JobStats[1].Attempts != 1 {
		t.Fatalf("attempts = %d,%d, want 2,1", c.JobStats[0].Attempts, c.JobStats[1].Attempts)
	}
}

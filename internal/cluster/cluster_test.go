package cluster

import (
	"runtime"
	"strings"
	"testing"

	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sched"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/strategy"
)

func smallTB() *Testbed {
	return New(SmallConfig(6))
}

// TestClusterNewAllocBounded: building a testbed at paper scale (a 4 GB
// image in 16,384 stripes) allocates no per-stripe table: the base image's
// content IDs are implicit in both the repository and the PFS. A sharded
// fleet builds one testbed per shard, so this is a per-shard fixed cost.
func TestClusterNewAllocBounded(t *testing.T) {
	const calls, limit = 20, 64 << 10
	cfg := DefaultConfig(4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		New(cfg)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= limit {
		t.Fatalf("cluster.New allocates %d B per call, want under %d", per, limit)
	}
}

func TestLaunchAllApproaches(t *testing.T) {
	tb := smallTB()
	for i, a := range Approaches() {
		inst := tb.Launch(string(a), i, a)
		if inst.VM == nil || inst.Guest == nil {
			t.Fatalf("%s: incomplete instance", a)
		}
	}
	// Run the boot reads to completion.
	if err := tb.Eng.RunUntil(1e5); err != nil {
		t.Fatal(err)
	}
	if tb.Repo.ReadBytes() == 0 {
		t.Fatal("boot reads never hit the repository")
	}
	tb.Eng.Shutdown()
	if len(tb.Instances()) != 5 {
		t.Fatalf("instances = %d", len(tb.Instances()))
	}
}

func TestGuestIOWorksPerApproach(t *testing.T) {
	for _, a := range Approaches() {
		a := a
		t.Run(string(a), func(t *testing.T) {
			tb := smallTB()
			inst := tb.Launch("vm0", 0, a)
			doneWrite := false
			tb.Eng.Go("io", func(p *sim.Proc) {
				f := inst.Guest.FS.Create("data", 16*params.MB)
				inst.Guest.FS.Write(p, f, 0, 16*params.MB)
				inst.Guest.FS.Read(p, f, 0, 16*params.MB)
				doneWrite = true
			})
			if err := tb.Eng.RunUntil(1e5); err != nil {
				t.Fatal(err)
			}
			tb.Eng.Shutdown()
			if !doneWrite {
				t.Fatal("guest I/O never completed")
			}
		})
	}
}

func TestMigrateEachApproach(t *testing.T) {
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
			tb.Eng.Go("middleware", func(p *sim.Proc) {
				p.Sleep(2) // mid-workload
				tb.MigrateInstance(p, inst, 1)
			})
			if err := tb.Eng.RunUntil(1e5); err != nil {
				t.Fatal(err)
			}
			tb.Eng.Shutdown()
			if !inst.Migrated {
				t.Fatal("migration never completed")
			}
			if inst.VM.Node != tb.Cl.Nodes[1] {
				t.Fatal("VM not on destination")
			}
			if inst.MigrationTime <= 0 {
				t.Fatalf("migration time = %v", inst.MigrationTime)
			}
			if inst.HVResult.MemoryBytes <= 0 {
				t.Fatal("no memory was migrated")
			}
			net := tb.Cl.Net
			switch a {
			case OurApproach:
				if net.BytesByTag(flow.TagStoragePush) == 0 {
					t.Error("our-approach produced no push traffic")
				}
			case Postcopy:
				if net.BytesByTag(flow.TagStoragePush) != 0 {
					t.Error("postcopy produced push traffic")
				}
				if net.BytesByTag(flow.TagStoragePull) == 0 {
					t.Error("postcopy produced no pull traffic")
				}
			case Mirror:
				if net.BytesByTag(flow.TagMirror) == 0 {
					t.Error("mirror produced no mirror traffic")
				}
			case Precopy:
				if net.BytesByTag(flow.TagBlockMig) == 0 {
					t.Error("precopy produced no block-migration traffic")
				}
			case PVFSShared:
				if net.BytesByTag(flow.TagStoragePush)+net.BytesByTag(flow.TagStoragePull)+
					net.BytesByTag(flow.TagBlockMig)+net.BytesByTag(flow.TagMirror) != 0 {
					t.Error("pvfs-shared moved storage during migration")
				}
				if net.BytesByTag(flow.TagPFS) == 0 {
					t.Error("pvfs-shared produced no PFS traffic")
				}
			}
		})
	}
}

func TestMigrationTimeDefinitions(t *testing.T) {
	// our-approach counts until source release (>= control transfer);
	// mirror counts until control transfer only.
	for _, a := range []Approach{OurApproach, Mirror} {
		tb := smallTB()
		inst := tb.Launch("vm0", 0, a)
		tb.Eng.Go("workload", func(p *sim.Proc) {
			f := inst.Guest.FS.Create("data", 64*params.MB)
			inst.Guest.FS.Write(p, f, 0, 64*params.MB)
		})
		tb.Eng.Go("middleware", func(p *sim.Proc) {
			p.Sleep(1)
			tb.MigrateInstance(p, inst, 1)
		})
		if err := tb.Eng.RunUntil(1e5); err != nil {
			t.Fatal(err)
		}
		tb.Eng.Shutdown()
		ctrl := inst.HVResult.ControlTransfer - inst.CoreStats.RequestedAt
		switch a {
		case OurApproach:
			if inst.MigrationTime < ctrl {
				t.Errorf("our-approach migration time %v < control transfer %v", inst.MigrationTime, ctrl)
			}
		case Mirror:
			if inst.MigrationTime > ctrl+1e-9 {
				t.Errorf("mirror migration time %v > control transfer %v", inst.MigrationTime, ctrl)
			}
		}
	}
}

func TestSuccessiveMigrationsOfDifferentVMs(t *testing.T) {
	tb := smallTB()
	a := OurApproach
	i1 := tb.Launch("vm1", 0, a)
	i2 := tb.Launch("vm2", 1, a)
	tb.Eng.Go("wl1", func(p *sim.Proc) {
		f := i1.Guest.FS.Create("d", 32*params.MB)
		i1.Guest.FS.Write(p, f, 0, 32*params.MB)
	})
	tb.Eng.Go("wl2", func(p *sim.Proc) {
		f := i2.Guest.FS.Create("d", 32*params.MB)
		i2.Guest.FS.Write(p, f, 0, 32*params.MB)
	})
	tb.Eng.Go("middleware", func(p *sim.Proc) {
		p.Sleep(1)
		tb.MigrateInstance(p, i1, 2)
		p.Sleep(1)
		tb.MigrateInstance(p, i2, 3)
	})
	if err := tb.Eng.RunUntil(1e5); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Shutdown()
	if !i1.Migrated || !i2.Migrated {
		t.Fatal("migrations incomplete")
	}
	if i1.VM.Node != tb.Cl.Nodes[2] || i2.VM.Node != tb.Cl.Nodes[3] {
		t.Fatal("VMs on wrong nodes")
	}
}

func TestTable1Descriptions(t *testing.T) {
	for _, a := range Approaches() {
		d, ok := strategy.Describe(string(a))
		if !ok {
			t.Fatalf("approach %s is not in the strategy registry", a)
		}
		if a.Description() != d {
			t.Fatalf("approach %s description diverges from the registry", a)
		}
	}
	if len(Approaches()) != 5 {
		t.Fatal("the paper compares exactly five approaches")
	}
	// An unregistered approach must name the registered strategies instead
	// of reporting a silent "unknown".
	desc := Approach("warp-drive").Description()
	for _, name := range strategy.Names() {
		if !strings.Contains(desc, name) {
			t.Fatalf("unregistered-approach description %q omits %q", desc, name)
		}
	}
}

// TestMigrateAllCampaign migrates three idle VMs as one serial campaign and
// checks the orchestrator moved every instance and produced coherent stats.
func TestMigrateAllCampaign(t *testing.T) {
	tb := New(SmallConfig(6))
	reqs := make([]MigrationRequest, 3)
	for i := range reqs {
		inst := tb.Launch(string(rune('a'+i)), i, OurApproach)
		reqs[i] = MigrationRequest{Inst: inst, DstIdx: 3 + i}
	}
	var c *metrics.Campaign
	tb.Eng.Go("orch", func(p *sim.Proc) {
		p.Sleep(1)
		c = tb.MigrateAll(p, reqs, sched.Serial{}, sched.Retry{})
	})
	if err := tb.Eng.RunUntil(1e6); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Shutdown()
	if c == nil {
		t.Fatal("campaign incomplete")
	}
	if c.PeakConcurrent != 1 {
		t.Errorf("serial campaign peak = %d", c.PeakConcurrent)
	}
	if c.TotalDowntime <= 0 {
		t.Errorf("downtime = %v", c.TotalDowntime)
	}
	prevEnd := 0.0
	for i, r := range reqs {
		if !r.Inst.Migrated {
			t.Fatalf("instance %d not migrated", i)
		}
		if r.Inst.VM.Node != tb.Cl.Nodes[3+i] {
			t.Errorf("instance %d on %v, want node %d", i, r.Inst.VM.Node, 3+i)
		}
		js := c.JobStats[i]
		if js.Started < prevEnd {
			t.Errorf("serial job %d started %v before predecessor finished %v", i, js.Started, prevEnd)
		}
		prevEnd = js.Finished
		if js.Downtime != r.Inst.HVResult.Downtime {
			t.Errorf("job %d downtime %v != instance downtime %v", i, js.Downtime, r.Inst.HVResult.Downtime)
		}
	}
}

// TestLowIOSignal checks the cycle-aware admission probe: a freshly idle VM
// is in a low-I/O window; one that just buffered a large write is not.
func TestLowIOSignal(t *testing.T) {
	tb := New(SmallConfig(2))
	inst := tb.Launch("vm", 0, OurApproach)
	var busy, idle bool
	tb.Eng.Go("probe", func(p *sim.Proc) {
		f := inst.Guest.FS.Create("d", 64<<20)
		inst.Guest.FS.Write(p, f, 0, 48<<20)
		busy = tb.LowIO(inst)    // dirty cache right after the write
		inst.Guest.Cache.Sync(p) // drain writeback
		idle = tb.LowIO(inst)
	})
	if err := tb.Eng.RunUntil(1e6); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Shutdown()
	if busy {
		t.Error("LowIO true immediately after writing 48 MB")
	}
	if !idle {
		t.Error("LowIO false after the cache drained")
	}
}

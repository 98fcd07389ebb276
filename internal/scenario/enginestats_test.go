package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// checkEngineStats runs one IOR VM on approach, migrated three seconds in,
// pins the kernel's work counters under Drain, and checks that the run
// loop's in-place wake-ups change nothing: the same scenario driven one
// event at a time with Step, which never hosts or elides, gives the same
// Result, the same callbacks, and as many dispatches as the run loop's
// dispatches and elided wakes together.
func checkEngineStats(t *testing.T, approach cluster.Approach, want sim.Stats) {
	t.Helper()
	s := New(WithNodes(4)).
		AddVM(VMSpec{Name: "vm0", Node: 0, Approach: approach, Workload: IOR(nil)}).
		MigrateAt("vm0", 1, 3)
	run := func(drive func(e *sim.Engine) error) (*Result, sim.Stats) {
		cfg, set, byName, err := s.resolve()
		if err != nil {
			t.Fatal(err)
		}
		ss := s.build(cfg, set, byName)
		eng := ss.tb.Eng
		if err := drive(eng); err != nil {
			t.Fatal(err)
		}
		eng.Shutdown()
		return s.collect(ss.tb, ss.insts, ss.runners, ss.cm1, ss.campaigns), eng.Stats()
	}
	res, got := run(func(e *sim.Engine) error { return e.Drain(s.opt.horizon) })
	ref, stepped := run(func(e *sim.Engine) error {
		for e.Step() {
		}
		return nil
	})
	if got != want {
		t.Errorf("Drain stats = %+v, want %+v", got, want)
	}
	if stepped.Elided != 0 || stepped.Callbacks != got.Callbacks || stepped.Dispatches != got.Dispatches+got.Elided {
		t.Errorf("Step stats = %+v, want %d callbacks, %d dispatches, 0 elided",
			stepped, got.Callbacks, got.Dispatches+got.Elided)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("Result differs between Drain and a Step loop:\nDrain: %+v\nStep:  %+v", res, ref)
	}
}

// TestEngineStatsQuickstart pins the counters on the README quickstart
// (our-approach). Its seven processes are the boot read, the cache
// writeback worker (spawned at the boot read's first dirty page), the IOR
// workload, the migration (middleware), and its push, pull and base
// prefetch.
func TestEngineStatsQuickstart(t *testing.T) {
	checkEngineStats(t, cluster.OurApproach, sim.Stats{Callbacks: 560, Dispatches: 1022, Elided: 20335, Spawns: 7})
}

// TestEngineStatsSharedIOR pins the counters on the quickstart's shape
// under pvfs-shared, where each guest I/O is a flush callback and a
// completion sweep ahead of the only process's wake-up: nearly every
// wake-up is taken in place by a hosted park.
func TestEngineStatsSharedIOR(t *testing.T) {
	checkEngineStats(t, cluster.PVFSShared, sim.Stats{Callbacks: 41126, Dispatches: 17, Elided: 41112, Spawns: 3})
}

// TestFlowStatsSharedIOR pins the flow allocator's work counters on the
// quickstart's shape under pvfs-shared. Each guest block is one PFS flow,
// and nearly all of them run alone on their links from start to
// completion: they are rated without a fill and retired as uncontended
// (the ordinary path made 20,695 fills collecting 20,873 units here).
func TestFlowStatsSharedIOR(t *testing.T) {
	s := New(WithNodes(4)).
		AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.PVFSShared, Workload: IOR(nil)}).
		MigrateAt("vm0", 1, 3)
	cfg, set, byName, err := s.resolve()
	if err != nil {
		t.Fatal(err)
	}
	ss := s.build(cfg, set, byName)
	if err := ss.tb.Eng.Drain(s.opt.horizon); err != nil {
		t.Fatal(err)
	}
	ss.tb.Eng.Shutdown()
	want := flow.Stats{Starts: 20566, Flushes: 20562, Fills: 276, Collected: 454, Retired: 20566, Rebuilds: 1, Uncontended: 20418}
	if got := ss.tb.Cl.Net.Stats(); got != want {
		t.Errorf("flow stats = %+v, want %+v", got, want)
	}
}

// TestSpawnsIdleFleet pins the processes an idle preseeded fleet spawns,
// on fleet-1k's shape at a few node pairs: per VM, the boot read, the
// migration (middleware) and its push and pull, and nothing else. A
// preseeded replica holds every base chunk, so boot reads dirty no cache
// page and the destination is owed no hinted chunk: neither a cache
// writeback worker nor a base prefetcher has anything to do, and neither
// is spawned.
func TestSpawnsIdleFleet(t *testing.T) {
	for _, pairs := range []int{1, 3} {
		nodes := 2 * pairs
		set := NewSetup(ScalePaper, nodes)
		set.Cluster.Testbed.FabricBandwidth = 2 * float64(nodes) * set.Cluster.Testbed.NICBandwidth
		s := New(WithConfig(set.Cluster), WithPreseededImages())
		warmup := set.Cluster.Experiment.WarmupDelay
		for p := 0; p < pairs; p++ {
			for v := 0; v < 2; v++ {
				name := fmt.Sprintf("vm%d-%d", p, v)
				s.AddVM(VMSpec{Name: name, Node: 2 * p, Approach: cluster.OurApproach})
				s.MigrateAt(name, 2*p+1, warmup+float64(p)+float64(v))
			}
		}
		cfg, st, byName, err := s.resolve()
		if err != nil {
			t.Fatal(err)
		}
		ss := s.build(cfg, st, byName)
		if err := ss.tb.Eng.Drain(s.opt.horizon); err != nil {
			t.Fatal(err)
		}
		ss.tb.Eng.Shutdown()
		res := s.collect(ss.tb, ss.insts, ss.runners, ss.cm1, ss.campaigns)
		for _, vm := range res.VMs {
			if !vm.Migrated || !vm.Core.Complete {
				t.Fatalf("%d pairs: %s migrated %v, complete %v; want both", pairs, vm.Name, vm.Migrated, vm.Core.Complete)
			}
		}
		const perVM = 4 // boot, middleware, push, pull
		if got, want := ss.tb.Eng.Stats().Spawns, uint64(perVM*2*pairs); got != want {
			t.Errorf("%d pairs: %d spawns, want %d (%d per VM)", pairs, got, want, perVM)
		}
	}
}

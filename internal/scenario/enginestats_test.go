package scenario

import (
	"reflect"
	"testing"

	"github.com/hybridmig/hybridmig/internal/cluster"
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
// (our-approach).
func TestEngineStatsQuickstart(t *testing.T) {
	checkEngineStats(t, cluster.OurApproach, sim.Stats{Callbacks: 560, Dispatches: 1023, Elided: 20335})
}

// TestEngineStatsSharedIOR pins the counters on the quickstart's shape
// under pvfs-shared, where each guest I/O is a flush callback and a
// completion sweep ahead of the only process's wake-up: nearly every
// wake-up is taken in place by a hosted park.
func TestEngineStatsSharedIOR(t *testing.T) {
	checkEngineStats(t, cluster.PVFSShared, sim.Stats{Callbacks: 41126, Dispatches: 17, Elided: 41112})
}

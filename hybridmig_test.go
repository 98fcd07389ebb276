package hybridmig_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	hybridmig "github.com/hybridmig/hybridmig"
)

// TestPublicAPIQuickstart runs the doc-comment session end to end through
// the facade only: declare, run, read the result.
func TestPublicAPIQuickstart(t *testing.T) {
	p := hybridmig.DefaultIORParams()
	p.Iterations = 4
	p.FileSize = 32 << 20
	s := hybridmig.NewScenario(hybridmig.WithNodes(4)).
		AddVM(hybridmig.VMSpec{Name: "vm0", Node: 0,
			Approach: hybridmig.OurApproach, Workload: hybridmig.IOR(&p)}).
		MigrateAt("vm0", 1, 2)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	vm := res.VM("vm0")
	if vm == nil || !vm.Migrated {
		t.Fatal("migration incomplete")
	}
	if vm.MigrationTime <= 0 {
		t.Fatalf("migration time %v", vm.MigrationTime)
	}
	if vm.Workload.Iterations != 4 {
		t.Fatalf("IOR iterations = %d", vm.Workload.Iterations)
	}
	if vm.Node != 1 {
		t.Fatalf("VM on node %d, want 1", vm.Node)
	}
}

// TestPublicAPIAllApproaches deploys and migrates every approach through
// the facade.
func TestPublicAPIAllApproaches(t *testing.T) {
	if len(hybridmig.Approaches()) != 5 {
		t.Fatal("expected five approaches")
	}
	for i, a := range hybridmig.Approaches() {
		rw := hybridmig.DefaultRewriteParams()
		rw.FileSize = 16 << 20
		rw.HotBytes = 0
		rw.Iterations = 1
		s := hybridmig.NewScenario(hybridmig.WithNodes(12)).
			AddVM(hybridmig.VMSpec{Name: "vm", Node: i, Approach: a,
				Workload: hybridmig.Rewrite(&rw)}).
			MigrateAt("vm", i+6, 1)
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !res.VM("vm").Migrated {
			t.Fatalf("%s: migration incomplete", a)
		}
		if res.VM("vm").Node != i+6 {
			t.Fatalf("%s: VM not on destination", a)
		}
	}
}

// TestPublicAPIStrategyRegistry pins the facade's registry surface: the
// paper's five approaches lead the list, the adaptive hybrid ships on top,
// and every entry resolves to a description.
func TestPublicAPIStrategyRegistry(t *testing.T) {
	all := hybridmig.Strategies()
	if len(all) < 6 {
		t.Fatalf("registry lists %d strategies, want the five approaches plus adaptive", len(all))
	}
	for i, a := range hybridmig.Approaches() {
		if all[i] != a {
			t.Fatalf("Strategies()[%d] = %s, want %s (Table 1 order first)", i, all[i], a)
		}
	}
	found := false
	for _, a := range all {
		if a == hybridmig.Adaptive {
			found = true
		}
		if d, ok := hybridmig.StrategyDescription(a); !ok || d == "" {
			t.Errorf("strategy %s has no description", a)
		}
	}
	if !found {
		t.Fatal("adaptive strategy not registered through the facade")
	}
	if _, ok := hybridmig.StrategyDescription("warp-drive"); ok {
		t.Fatal("StrategyDescription invented a strategy")
	}
}

// TestPublicAPIThresholdAblation runs the same push-based scenario at two
// static thresholds plus adaptive through WithThreshold and the registry:
// the cutoff must change what the push phase defers (the paper's threshold
// ablation axis), without breaking completion.
func TestPublicAPIThresholdAblation(t *testing.T) {
	run := func(a hybridmig.Approach, opts ...hybridmig.Option) *hybridmig.VMResult {
		rw := hybridmig.DefaultRewriteParams()
		s := hybridmig.NewScenario(append(opts, hybridmig.WithNodes(4))...).
			AddVM(hybridmig.VMSpec{Name: "vm0", Node: 0, Approach: a,
				Workload: hybridmig.Rewrite(&rw)}).
			MigrateAt("vm0", 1, 3)
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		vm := res.VM("vm0")
		if !vm.Migrated {
			t.Fatalf("%s: migration incomplete", a)
		}
		return vm
	}
	loose := run(hybridmig.OurApproach, hybridmig.WithThreshold(1000))
	tight := run(hybridmig.OurApproach, hybridmig.WithThreshold(1))
	if tight.Core.SkippedHot <= loose.Core.SkippedHot {
		t.Errorf("threshold 1 deferred %d chunks, threshold 1000 deferred %d — ablation has no effect",
			tight.Core.SkippedHot, loose.Core.SkippedHot)
	}
	adaptive := run(hybridmig.Adaptive)
	if adaptive.Core.PushedChunks+adaptive.Core.PulledChunks+adaptive.Core.OnDemandPulls == 0 {
		t.Error("adaptive run moved no storage")
	}
}

// TestPublicAPICampaign drives the orchestration surface end to end: a
// four-VM fleet migrated as one campaign under each of the standard
// policies, entirely through the facade.
func TestPublicAPICampaign(t *testing.T) {
	pols := hybridmig.Policies(4)
	if len(pols) != 4 {
		t.Fatalf("policy set size %d", len(pols))
	}
	pols = append(pols, hybridmig.AllAtOnce(), hybridmig.Serial(),
		hybridmig.BatchedK(3), hybridmig.CycleAware(2))
	for _, pol := range pols {
		s := hybridmig.NewScenario(hybridmig.WithNodes(8))
		steps := make([]hybridmig.Step, 4)
		for k := range steps {
			name := fmt.Sprintf("vm%d", k)
			s.AddVM(hybridmig.VMSpec{Name: name, Node: k, Approach: hybridmig.OurApproach})
			steps[k] = hybridmig.Step{VM: name, Dst: 4 + k}
		}
		s.Campaign(1, pol, steps...)
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		c := res.Campaigns[0]
		if c.Jobs != 4 || c.Makespan() <= 0 || c.TransferredBytes <= 0 {
			t.Errorf("%s: degenerate campaign %+v", pol.Name(), c)
		}
		for k := range steps {
			vm := res.VM(fmt.Sprintf("vm%d", k))
			if !vm.Migrated {
				t.Errorf("%s: vm%d not migrated", pol.Name(), k)
			}
			if vm.Node != 4+k {
				t.Errorf("%s: vm%d not on destination", pol.Name(), k)
			}
		}
	}
}

// TestPublicAPICM1 runs the CM1 workload through the facade with one
// migration, checking the barrier-coupled application keeps its shape.
func TestPublicAPICM1(t *testing.T) {
	p := hybridmig.DefaultCM1Params()
	p.Procs, p.GridX, p.GridY = 4, 2, 2
	p.Intervals = 3
	p.ComputePerIntvl = 1
	p.OutputSize = 4 << 20
	p.HaloBytes = 256 << 10
	p.WorkingSet = 16 << 20
	p.MemoryDirtyRate = 8 << 20

	s := hybridmig.NewScenario(hybridmig.WithNodes(6), hybridmig.WithCM1(p))
	for i := 0; i < 4; i++ {
		s.AddVM(hybridmig.VMSpec{Name: fmt.Sprintf("rank%d", i), Node: i,
			Approach: hybridmig.OurApproach})
	}
	s.MigrateAt("rank0", 4, 1)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CM1 == nil || res.CM1.Intervals != 3 {
		t.Fatalf("CM1 finished %+v, want 3 intervals", res.CM1)
	}
	if !res.VM("rank0").Migrated {
		t.Fatal("migration incomplete")
	}
	if res.CM1.Runtime <= 3 {
		t.Fatalf("runtime %v implausibly short", res.CM1.Runtime)
	}
}

// TestPublicAPIErrors pins the typed error surface: validation failures wrap
// ErrInvalidScenario; horizon overruns are *DeadlineError.
func TestPublicAPIErrors(t *testing.T) {
	_, err := hybridmig.NewScenario().Run()
	if !errors.Is(err, hybridmig.ErrInvalidScenario) {
		t.Fatalf("empty scenario error %v does not wrap ErrInvalidScenario", err)
	}

	// The trigger must sit inside the horizon (a trigger past it is a
	// validation error); the migration then overruns the 0.5 s budget.
	s := hybridmig.NewScenario(hybridmig.WithNodes(4), hybridmig.WithHorizon(0.5)).
		AddVM(hybridmig.VMSpec{Name: "vm0", Node: 0, Approach: hybridmig.OurApproach,
			Workload: hybridmig.Rewrite(nil)}).
		MigrateAt("vm0", 1, 0.25)
	_, err = s.Run()
	var de *hybridmig.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("horizon overrun error %T is not a *DeadlineError", err)
	}
}

// TestPublicAPIObserver checks the facade observer hook sees the migration
// lifecycle in order.
func TestPublicAPIObserver(t *testing.T) {
	var kinds []hybridmig.EventKind
	obs := hybridmig.ObserverFunc(func(e hybridmig.Event) { kinds = append(kinds, e.Kind) })
	s := hybridmig.NewScenario(hybridmig.WithNodes(4), hybridmig.WithObserver(obs)).
		AddVM(hybridmig.VMSpec{Name: "vm0", Node: 0, Approach: hybridmig.OurApproach,
			Workload: hybridmig.Rewrite(nil)}).
		MigrateAt("vm0", 1, 2)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var sawReq, sawRound, sawDone bool
	for _, k := range kinds {
		switch k {
		case hybridmig.KindMigrationRequested:
			sawReq = true
		case hybridmig.KindRound:
			if !sawReq {
				t.Fatal("pre-copy round before migration request")
			}
			sawRound = true
		case hybridmig.KindMigrationCompleted:
			if !sawRound {
				t.Fatal("completion before any pre-copy round")
			}
			sawDone = true
		}
	}
	if !sawReq || !sawRound || !sawDone {
		t.Fatalf("lifecycle incomplete: req=%v round=%v done=%v", sawReq, sawRound, sawDone)
	}
}

// TestPublicAPIOptions runs the facade's configuration and fault options
// end to end: the per-scale configurations, an AsyncWR guest under a link
// degradation, background traffic and a retry budget with a seed capture
// and periodic samples, and two preseeded migrations on the parallel
// kernel.
func TestPublicAPIOptions(t *testing.T) {
	if got, want := hybridmig.SetupFor(hybridmig.ScalePaper, 4).Cluster, hybridmig.DefaultConfig(4); !reflect.DeepEqual(got, want) {
		t.Fatalf("paper-scale setup cluster %+v, want DefaultConfig %+v", got, want)
	}
	small := hybridmig.SmallConfig(4)
	if got := hybridmig.SetupFor(hybridmig.ScaleSmall, 4).Cluster; !reflect.DeepEqual(got, small) {
		t.Fatalf("small-scale setup cluster %+v, want SmallConfig %+v", got, small)
	}

	p := hybridmig.DefaultAsyncWRParams()
	p.Iterations = 3
	p.DataPerIter = 4 << 20
	p.ComputeTime = 0.5
	samples := 0
	obs := hybridmig.ObserverFunc(func(e hybridmig.Event) {
		if e.Kind == hybridmig.KindSample {
			samples++
		}
	})
	s := hybridmig.NewScenario(hybridmig.WithScale(hybridmig.ScaleSmall), hybridmig.WithConfig(small),
		hybridmig.WithSeedCapture(), hybridmig.WithObserver(obs), hybridmig.WithSampleInterval(0.1),
		hybridmig.WithFaults(hybridmig.FaultSpec{At: 0.5, Kind: hybridmig.FaultLinkDegrade, Node: 1, Factor: 0.5, Duration: 1}),
		hybridmig.WithBackgroundTraffic(hybridmig.TrafficSpec{Src: 2, Dst: 1, Start: 0, Stop: 1, Rate: 1 << 20}),
		hybridmig.WithRetry(hybridmig.RetrySpec{MaxAttempts: 2, Backoff: 0.1})).
		AddVM(hybridmig.VMSpec{Name: "vm0", Node: 0, Approach: hybridmig.OurApproach,
			Workload: hybridmig.AsyncWR(&p, 0)}).
		MigrateAt("vm0", 1, 0.25)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.VM("vm0").Migrated || res.SeedCapture == "" || samples == 0 {
		t.Fatalf("migrated=%t, %d-byte seed capture, %d samples", res.VM("vm0").Migrated, len(res.SeedCapture), samples)
	}

	s = hybridmig.NewScenario(hybridmig.WithNodes(4), hybridmig.WithPreseededImages(), hybridmig.WithParallel(2))
	for i := 0; i < 2; i++ {
		rw := hybridmig.DefaultRewriteParams()
		rw.FileSize = 16 << 20
		rw.Iterations = 1
		name := fmt.Sprintf("vm%d", i)
		s.AddVM(hybridmig.VMSpec{Name: name, Node: 2 * i, Approach: hybridmig.OurApproach,
			Workload: hybridmig.Rewrite(&rw)}).
			MigrateAt(name, 2*i+1, 1)
	}
	if res, err = s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if vm := res.VM(fmt.Sprintf("vm%d", i)); !vm.Migrated || vm.Node != 2*i+1 {
			t.Fatalf("vm%d: migrated=%t on node %d", i, vm.Migrated, vm.Node)
		}
	}
}

package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/sched"
	"github.com/hybridmig/hybridmig/internal/strategy"
)

// This file is the differential serial/parallel equivalence suite: every
// scenario family the repo exercises — handcrafted multi-component runs with
// faults, traffic and retries; the randomized invariant harness; fallback
// scenarios — is run through both kernels and the Results are compared field
// by field. The tolerance is relative 1e-6; in practice per-VM measurements
// are bit-identical and only summed traffic counters differ by association.

// equivTol is the relative tolerance of the field-wise comparison.
const equivTol = 1e-6

// planOf resolves s and returns its partition plan, nil when the planner
// vetoes sharding.
func planOf(t *testing.T, s *Scenario) *partitionPlan {
	t.Helper()
	cfg, _, byName, err := s.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return s.planPartition(cfg, byName)
}

// floatsEquivalent reports a ≈ b within relative tolerance equivTol.
func floatsEquivalent(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= equivTol*math.Max(math.Abs(a), math.Abs(b))
}

// diffStructs walks two values of the same type and reports every leaf field
// where they diverge: floats compared at equivTol, everything else exactly.
func diffStructs(t *testing.T, path string, a, b reflect.Value) {
	t.Helper()
	switch a.Kind() {
	case reflect.Float64, reflect.Float32:
		if !floatsEquivalent(a.Float(), b.Float()) {
			t.Errorf("%s: serial %x parallel %x", path, a.Float(), b.Float())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			diffStructs(t, path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			t.Errorf("%s: length %d vs %d", path, a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			diffStructs(t, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			t.Errorf("%s: serial %v parallel %v", path, a.Interface(), b.Interface())
		}
	}
}

// compareResults asserts the parallel Result matches the serial one field by
// field. SeedCapture and Config are compared structurally elsewhere; the
// capture is a hex rendering of exactly the fields compared here.
func compareResults(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if !floatsEquivalent(serial.Clock, parallel.Clock) {
		t.Errorf("Clock: serial %x parallel %x", serial.Clock, parallel.Clock)
	}
	diffStructs(t, "VMs", reflect.ValueOf(serial.VMs), reflect.ValueOf(parallel.VMs))
	if len(serial.Campaigns) != len(parallel.Campaigns) {
		t.Errorf("Campaigns: %d vs %d", len(serial.Campaigns), len(parallel.Campaigns))
	}
	if (serial.CM1 == nil) != (parallel.CM1 == nil) {
		t.Errorf("CM1 presence: %v vs %v", serial.CM1 != nil, parallel.CM1 != nil)
	}
	for tag, sv := range serial.Traffic {
		if pv, ok := parallel.Traffic[tag]; !ok || !floatsEquivalent(sv, pv) {
			t.Errorf("Traffic[%s]: serial %x parallel %x (present=%t)", tag, sv, pv, ok)
		}
	}
	for tag := range parallel.Traffic {
		if _, ok := serial.Traffic[tag]; !ok {
			t.Errorf("Traffic[%s]: parallel-only tag", tag)
		}
	}
}

// parallelRandomScenario builds one preseeded, component-decomposable
// scenario from the seed: several disjoint node pairs, each with VMs of the
// registry's node-local strategies, a timed migration plan, intra-pair
// cross traffic, and link-degrade, partition and crash faults; with
// probability ~1/2 a global fabric-degrade fault, which the sharded runner
// gives to shard 0 alone. The same seed always builds the same scenario;
// parallel selects the kernel.
func parallelRandomScenario(seed int64, parallel bool) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	pairs := 3 + rng.Intn(3)
	nodes := 2 * pairs
	set := NewSetup(ScaleSmall, nodes)
	// Keep the switch fabric transparent even under a factor-0.5 degrade, so
	// the planner's headroom test admits the decomposition.
	set.Cluster.Testbed.FabricBandwidth = 4 * float64(nodes) * set.Cluster.Testbed.NICBandwidth

	retry := RetrySpec{MaxAttempts: 2 + rng.Intn(2), Backoff: 0.5 + rng.Float64()}
	opts := []Option{
		WithConfig(set.Cluster), WithPreseededImages(), WithSeedCapture(), WithRetry(retry),
	}
	if parallel {
		opts = append(opts, WithParallel(4))
	}

	// Every strategy that keeps its storage node-local can shard, including
	// ones linked in only through registration, like adaptive.
	var approaches []cluster.Approach
	for _, n := range strategy.Names() {
		if def, _ := strategy.Lookup(n); !def.Traits.SharedStorage {
			approaches = append(approaches, cluster.Approach(n))
		}
	}
	warmup := 2 + rng.Float64()*2
	type mig struct {
		vm  string
		dst int
		at  float64
	}
	var vms []VMSpec
	var migs []mig
	var faults []FaultSpec
	var traffic []TrafficSpec
	for p := 0; p < pairs; p++ {
		src, dst := 2*p, 2*p+1
		nVMs := 1 + rng.Intn(2)
		for v := 0; v < nVMs; v++ {
			name := fmt.Sprintf("vm%d-%d", p, v)
			var wl WorkloadSpec
			switch rng.Intn(3) {
			case 0:
				wl = Rewrite(nil)
			case 1:
				p := set.IOR
				p.Iterations = 6 + rng.Intn(8)
				wl = IOR(&p)
			}
			vms = append(vms, VMSpec{
				Name: name, Node: src,
				Approach: approaches[rng.Intn(len(approaches))],
				Workload: wl,
			})
			migs = append(migs, mig{vm: name, dst: dst, at: warmup + rng.Float64()*4})
			if rng.Intn(3) == 0 {
				faults = append(faults, FaultSpec{Kind: FaultDestCrash, VM: name,
					At: warmup + rng.Float64()*5})
			}
		}
		if rng.Intn(2) == 0 {
			traffic = append(traffic, TrafficSpec{
				Src: src, Dst: dst, Start: rng.Float64() * 2,
				Stop: 8 + rng.Float64()*10, Rate: float64(10+rng.Intn(30)) * 1e6,
			})
		}
		degradeEnd := -1.0 // end of the link-degrade window on dst, if any
		if rng.Intn(3) == 0 {
			f := FaultSpec{Kind: FaultLinkDegrade, Node: dst,
				At: warmup + rng.Float64()*2, Factor: 0.3 + rng.Float64()*0.5,
				Duration: 1 + rng.Float64()*3}
			faults = append(faults, f)
			degradeEnd = f.At + f.Duration
		}
		if rng.Intn(3) == 0 {
			f := FaultSpec{Kind: FaultPartition, Node: src + rng.Intn(2),
				At: warmup + rng.Float64()*4, Duration: 0.5 + rng.Float64()*2}
			// Windows on one node's NIC must not overlap: start after the
			// degradation instead.
			if f.Node == dst && degradeEnd >= 0 && f.At < degradeEnd {
				f.At = degradeEnd + 0.5
			}
			faults = append(faults, f)
		}
	}
	if rng.Intn(2) == 0 {
		faults = append(faults, FaultSpec{Kind: FaultFabricDegrade,
			At: warmup + rng.Float64()*2, Factor: 0.5, Duration: 2 + rng.Float64()*3})
	}
	if len(faults) > 0 {
		opts = append(opts, WithFaults(faults...))
	}
	if len(traffic) > 0 {
		opts = append(opts, WithBackgroundTraffic(traffic...))
	}
	s := New(opts...)
	for _, v := range vms {
		s.AddVM(v)
	}
	for _, m := range migs {
		s.MigrateAt(m.vm, m.dst, m.at)
	}
	return s
}

// TestParallelEquivalenceRandom is the core differential harness: seeded
// multi-component scenarios run through both kernels, Results compared field
// by field, and the plan inspected to prove the parallel run actually
// sharded (no vacuous passes through the serial fallback).
func TestParallelEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			serial := parallelRandomScenario(seed, false)
			sres, serr := serial.Run()
			if serr != nil {
				t.Fatalf("serial: %v", serr)
			}

			par := parallelRandomScenario(seed, true)
			plan := planOf(t, par)
			if plan == nil {
				t.Fatalf("seed %d: planner fell back to serial on a decomposable scenario", seed)
			}
			if len(plan.shards) < 2 {
				t.Fatalf("seed %d: plan has %d shards, want >= 2", seed, len(plan.shards))
			}
			pres, perr := par.Run()
			if perr != nil {
				t.Fatalf("parallel: %v", perr)
			}
			compareResults(t, sres, pres)
		})
	}
}

// TestParallelEquivalenceInvariantHarness runs the existing randomized
// invariant scenarios (campaigns, overlapping node use, every registered
// strategy) under WithParallel: these scenarios are not decomposable, so the
// planner must fall back and the runs must stay bit-identical to serial —
// the "-parallel on a non-shardable scenario changes nothing" contract.
func TestParallelEquivalenceInvariantHarness(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			serial, _ := randomScenario(seed)
			sres, serr := serial.Run()
			if serr != nil {
				t.Fatalf("serial: %v", serr)
			}
			par, _ := randomScenario(seed)
			par.opt.parallel = true
			par.opt.workers = 4
			pres, perr := par.Run()
			if perr != nil {
				t.Fatalf("parallel: %v", perr)
			}
			if sres.SeedCapture != pres.SeedCapture {
				t.Fatalf("fallback not bit-identical:\n--- serial\n%s\n--- parallel\n%s",
					sres.SeedCapture, pres.SeedCapture)
			}
		})
	}
}

// TestParallelPreseededSemantics pins what preseeding itself changes: a
// preseeded migration never touches the repository (no repo traffic, no
// prefetch) yet still completes with the full modified set transferred.
func TestParallelPreseededSemantics(t *testing.T) {
	build := func(pre bool) *Result {
		opts := []Option{WithNodes(4)}
		if pre {
			opts = append(opts, WithPreseededImages())
		}
		s := New(opts...).
			AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach, Workload: Rewrite(nil)}).
			MigrateAt("vm0", 1, 3)
		res, err := s.Run()
		if err != nil {
			t.Fatalf("pre=%t: %v", pre, err)
		}
		return res
	}
	pre := build(true)
	if !pre.VMs[0].Migrated {
		t.Fatal("preseeded VM did not migrate")
	}
	if got := pre.Traffic["repo"]; got != 0 {
		t.Errorf("preseeded run moved %v repo bytes, want 0", got)
	}
	if got := pre.VMs[0].Core.PrefetchBytes; got != 0 {
		t.Errorf("preseeded run prefetched %v bytes, want 0", got)
	}
	if pre.VMs[0].Core.PushedBytes+pre.VMs[0].Core.PulledBytes+pre.VMs[0].Core.OnDemandBytes <= 0 {
		t.Error("preseeded migration transferred no modified data")
	}
	plain := build(false)
	if plain.Traffic["repo"] <= 0 {
		t.Error("non-preseeded run touched no repo bytes; preseed comparison is vacuous")
	}
}

// TestParallelPlannerFallbacks pins each planner veto: campaigns, CM1,
// shared-storage strategies, non-preseeded images, a saturable fabric,
// faults or traffic on a component without VMs, and single-component
// scenarios all return a nil plan. Fabric-degrade and partition faults
// shard.
func TestParallelPlannerFallbacks(t *testing.T) {
	base := func(extra ...Option) *Scenario {
		opts := append([]Option{WithNodes(4), WithPreseededImages(), WithParallel(2)}, extra...)
		return New(opts...).
			AddVM(VMSpec{Name: "a", Node: 0, Approach: cluster.OurApproach}).
			AddVM(VMSpec{Name: "b", Node: 2, Approach: cluster.OurApproach}).
			MigrateAt("a", 1, 1).MigrateAt("b", 3, 1)
	}
	expectPlan := func(t *testing.T, s *Scenario, want bool) {
		t.Helper()
		if got := planOf(t, s) != nil; got != want {
			t.Errorf("planPartition = %t, want %t", got, want)
		}
	}

	t.Run("decomposable", func(t *testing.T) { expectPlan(t, base(), true) })
	t.Run("shared-storage", func(t *testing.T) {
		s := New(WithNodes(4), WithPreseededImages(), WithParallel(2)).
			AddVM(VMSpec{Name: "a", Node: 0, Approach: cluster.Precopy}).
			AddVM(VMSpec{Name: "b", Node: 2, Approach: cluster.OurApproach}).
			MigrateAt("a", 1, 1).MigrateAt("b", 3, 1)
		expectPlan(t, s, false)
	})
	t.Run("not-preseeded", func(t *testing.T) {
		s := New(WithNodes(4), WithParallel(2)).
			AddVM(VMSpec{Name: "a", Node: 0, Approach: cluster.OurApproach}).
			AddVM(VMSpec{Name: "b", Node: 2, Approach: cluster.OurApproach}).
			MigrateAt("a", 1, 1).MigrateAt("b", 3, 1)
		expectPlan(t, s, false)
	})
	t.Run("campaign", func(t *testing.T) {
		s := base()
		s.Campaign(2, sched.AllAtOnce{}, Step{VM: "a", Dst: 1})
		expectPlan(t, s, false)
	})
	t.Run("cm1", func(t *testing.T) {
		p := NewSetup(ScaleSmall, 4).CM1
		p.Procs, p.GridX, p.GridY = 2, 2, 1
		expectPlan(t, base(WithCM1(p)), false)
	})
	// Nodes 4 and 5 form a component without VMs.
	t.Run("vm-less-traffic", func(t *testing.T) {
		expectPlan(t, base(WithNodes(6), WithBackgroundTraffic(TrafficSpec{
			Src: 4, Dst: 5, Start: 0, Stop: 1})), false)
	})
	t.Run("vm-less-link-degrade", func(t *testing.T) {
		expectPlan(t, base(WithNodes(6), WithFaults(FaultSpec{
			Kind: FaultLinkDegrade, Node: 4, At: 1, Factor: 0.5, Duration: 1})), false)
	})
	t.Run("vm-less-partition", func(t *testing.T) {
		expectPlan(t, base(WithNodes(6), WithFaults(FaultSpec{
			Kind: FaultPartition, Node: 5, At: 1, Duration: 1})), false)
	})
	t.Run("saturable-fabric", func(t *testing.T) {
		set := NewSetup(ScaleSmall, 4)
		set.Cluster.Testbed.FabricBandwidth = 2 * set.Cluster.Testbed.NICBandwidth
		expectPlan(t, base(WithConfig(set.Cluster)), false)
	})
	t.Run("fabric-blackout", func(t *testing.T) {
		// Factor 0 zeroes the headroom bound, so any fabric-degrade blackout
		// forces the serial kernel.
		expectPlan(t, base(WithFaults(FaultSpec{
			Kind: FaultFabricDegrade, At: 1, Factor: 0, Duration: 1})), false)
	})
	t.Run("single-component", func(t *testing.T) {
		s := New(WithNodes(4), WithPreseededImages(), WithParallel(2)).
			AddVM(VMSpec{Name: "a", Node: 0, Approach: cluster.OurApproach}).
			AddVM(VMSpec{Name: "b", Node: 2, Approach: cluster.OurApproach}).
			MigrateAt("a", 1, 1).MigrateAt("b", 1, 2) // shared destination couples the pairs
		expectPlan(t, s, false)
	})
	t.Run("fabric-degrade", func(t *testing.T) {
		// At 4x headroom a factor-0.5 degrade keeps the fabric transparent,
		// so the scenario shards and shard 0 alone owns the fault.
		set := NewSetup(ScaleSmall, 4)
		set.Cluster.Testbed.FabricBandwidth = 4 * 4 * set.Cluster.Testbed.NICBandwidth
		s := base(WithConfig(set.Cluster), WithFaults(FaultSpec{
			Kind: FaultFabricDegrade, At: 1, Factor: 0.5, Duration: 1}))
		plan := planOf(t, s)
		if plan == nil {
			t.Fatal("planPartition = nil, want a plan")
		}
		if f := plan.shards[0].faults; len(f) != 1 || f[0].Kind != FaultFabricDegrade {
			t.Errorf("shard 0 faults %v, want the one fabric-degrade fault", f)
		}
		for i, sp := range plan.shards[1:] {
			if len(sp.faults) != 0 {
				t.Errorf("shard %d carries faults %v, want none", i+1, sp.faults)
			}
		}
	})
	t.Run("partition", func(t *testing.T) {
		// Without shared storage a partition is a NIC blackout on one node:
		// the shard owning node 3 gets it, remapped to local node 1.
		plan := planOf(t, base(WithFaults(FaultSpec{Kind: FaultPartition, Node: 3, At: 1, Duration: 1})))
		if plan == nil {
			t.Fatal("planPartition = nil, want a plan")
		}
		if f := plan.shards[0].faults; len(f) != 0 {
			t.Errorf("shard 0 faults %v, want none", f)
		}
		if f := plan.shards[1].faults; len(f) != 1 || f[0].Kind != FaultPartition || f[0].Node != 1 {
			t.Errorf("shard 1 faults %v, want the partition on local node 1", f)
		}
	})
}

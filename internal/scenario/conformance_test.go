package scenario

import (
	"testing"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/strategy"
	// The adaptive-threshold hybrid registers itself through the public
	// strategy registry; linking it here is all the conformance suite needs
	// to pick it up — there is no adaptive case anywhere below.
	_ "github.com/hybridmig/hybridmig/internal/strategy/adaptive"
)

// TestStrategyConformance runs every *registered* storage-transfer strategy
// — the paper's five plus anything registered on top, today the adaptive
// hybrid — through one shared seeded scenario and asserts the strategy-layer
// contract:
//
//   - termination: the run drains inside the horizon with the migration
//     completed;
//   - determinism: a re-run produces a bit-identical SeedCapture;
//   - per-tag byte conservation: the network's migration-tagged bytes equal
//     what completed attempts installed plus what aborted attempts wasted;
//   - abort→retry convergence: a destination crash injected mid-flight
//     aborts the attempt and the retry budget still converges to a
//     completed migration.
//
// A newly registered strategy is picked up automatically; if it cannot pass
// this suite it does not belong in the registry.
func TestStrategyConformance(t *testing.T) {
	names := strategy.Names()
	if len(names) < 7 {
		t.Fatalf("registry lists %d strategies, want the five Table 1 approaches plus multiattach and adaptive", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			res := runConformance(t, name, nil)
			// Probe the attempt span so the fault lands mid-flight for every
			// strategy, however long its migration takes.
			span := res.VM("vm0").MigrationTime
			if span <= 0 {
				t.Fatalf("fault-free migration time = %v", span)
			}
			faults := []FaultSpec{{
				Kind: FaultDestCrash, VM: "vm0", At: conformanceWarmup + span/2,
			}}
			faulted := runConformance(t, name, faults)
			fv := faulted.VM("vm0")
			if fv.Aborts == 0 {
				t.Errorf("mid-flight destination crash at %g never aborted the attempt",
					conformanceWarmup+span/2)
			}
			if fv.Retries == 0 && fv.Aborts > 0 {
				t.Errorf("aborted attempt was never re-admitted")
			}
		})
	}
}

// conformanceWarmup is the shared migration trigger time of the suite.
const conformanceWarmup = 3.0

// runConformance executes the suite's seeded scenario for one strategy —
// two VMs with write-heavy workloads, a timed migration of the first — and
// checks termination, determinism, and byte conservation. It returns the
// first run's result for probing.
func runConformance(t *testing.T, name string, faults []FaultSpec) *Result {
	t.Helper()
	build := func() *Scenario {
		opts := []Option{
			WithNodes(4),
			WithSeedCapture(),
			WithRetry(RetrySpec{MaxAttempts: 3, Backoff: 0.5}),
		}
		if len(faults) > 0 {
			opts = append(opts, WithFaults(faults...))
		}
		s := New(opts...).
			AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.Approach(name),
				Workload: Rewrite(nil)}).
			AddVM(VMSpec{Name: "vm1", Node: 1, Approach: cluster.Approach(name),
				Workload: Rewrite(nil)}).
			MigrateAt("vm0", 2, conformanceWarmup)
		return s
	}
	res, err := build().Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err) // termination: no deadline, no validation error
	}
	checkScenarioInvariants(t, res, planInfo{
		migrated: map[string]bool{"vm0": true},
		maxTries: 3,
	})
	v := res.VM("vm0")
	if !v.Migrated && !v.Exhausted {
		t.Fatalf("%s: migration is not terminal", name)
	}
	if len(faults) == 0 && !v.Migrated {
		t.Fatalf("%s: fault-free migration did not complete", name)
	}
	rerun, err := build().Run()
	if err != nil {
		t.Fatalf("%s rerun: %v", name, err)
	}
	if rerun.SeedCapture != res.SeedCapture {
		t.Fatalf("%s: re-run diverged from the seed capture", name)
	}
	return res
}

// TestStrategyPartitionConformance runs every registered strategy through a
// destination partition that opens mid-migration and outlives the lease
// TTL+grace. The contract: the run stays terminal and deterministic for all
// strategies (non-lease strategies stall through the blackout and finish
// after heal; lease-managed ones abort and retry), byte conservation holds,
// and the multiattach dual-attach window resolves the partition through a
// fencing decision — never through a second writer.
func TestStrategyPartitionConformance(t *testing.T) {
	for _, name := range strategy.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			probe := runConformance(t, name, nil)
			span := probe.VM("vm0").MigrationTime
			if span <= 0 {
				t.Fatalf("fault-free migration time = %v", span)
			}
			// The partition must outlive TTL+grace+one reconcile tick (6 s at
			// the defaults) so silent holders are actually fenced, and the
			// retry budget must reach past the heal.
			fault := FaultSpec{Kind: FaultPartition, Node: 2,
				At: conformanceWarmup + span/2, Duration: 8}
			build := func() *Scenario {
				return New(
					WithNodes(4),
					WithSeedCapture(),
					WithRetry(RetrySpec{MaxAttempts: 6, Backoff: 1}),
					WithFaults(fault),
				).
					AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.Approach(name),
						Workload: Rewrite(nil)}).
					AddVM(VMSpec{Name: "vm1", Node: 1, Approach: cluster.Approach(name),
						Workload: Rewrite(nil)}).
					MigrateAt("vm0", 2, conformanceWarmup)
			}
			res, err := build().Run()
			if err != nil {
				t.Fatalf("%s under partition: %v", name, err)
			}
			checkScenarioInvariants(t, res, planInfo{
				migrated: map[string]bool{"vm0": true},
				maxTries: 6,
			})
			v := res.VM("vm0")
			if !v.Migrated && !v.Exhausted {
				t.Fatalf("%s: migration under partition is not terminal", name)
			}
			if res.SplitBrainWindows != 0 {
				t.Fatalf("%s: %d split-brain windows with fencing enabled", name, res.SplitBrainWindows)
			}
			if name == string(cluster.MultiAttach) && v.Fenced == 0 {
				t.Errorf("multiattach resolved a mid-window destination partition without a fencing decision")
			}
			rerun, err := build().Run()
			if err != nil {
				t.Fatalf("%s rerun: %v", name, err)
			}
			if rerun.SeedCapture != res.SeedCapture {
				t.Fatalf("%s: partition re-run diverged from the seed capture", name)
			}
		})
	}
}

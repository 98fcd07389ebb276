package scenario

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/sched"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// faulty builds the canonical degraded-mode scenario: one IOR VM whose
// migration is killed by a destination crash mid-flight, with a retry
// budget that lets it complete on the second attempt.
func faulty(crashAt float64, opts ...Option) *Scenario {
	set := NewSetup(ScaleSmall, 4)
	base := []Option{WithConfig(set.Cluster),
		WithRetry(RetrySpec{MaxAttempts: 3, Backoff: 1}),
		WithFaults(FaultSpec{Kind: FaultDestCrash, VM: "vm0", At: crashAt}),
	}
	return New(append(base, opts...)...).
		AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach,
			Workload: IOR(&set.IOR)}).
		MigrateAt("vm0", 1, set.Warmup)
}

// TestDestCrashMidMigrationCompletesViaRetry is the acceptance scenario: an
// injected destination crash mid-migration aborts the first attempt, the
// retry completes, and the Result reports retries > 0 and aborted bytes > 0.
func TestDestCrashMidMigrationCompletesViaRetry(t *testing.T) {
	// Warm-up is 8 s at small scale; the migration takes several seconds, so
	// a crash at 9 s lands mid-flight.
	res, err := faulty(9).Run()
	if err != nil {
		t.Fatal(err)
	}
	vm := res.VM("vm0")
	if !vm.Migrated {
		t.Fatal("VM never completed its migration")
	}
	if vm.Node != 1 {
		t.Fatalf("VM ended on node %d, want 1", vm.Node)
	}
	if vm.Retries == 0 {
		t.Fatal("Result reports zero retries")
	}
	if vm.Aborts == 0 || vm.AbortedBytes <= 0 {
		t.Fatalf("aborts=%d abortedBytes=%v, want both positive", vm.Aborts, vm.AbortedBytes)
	}
	if res.TotalRetries() != vm.Retries || res.TotalAbortedBytes() != vm.AbortedBytes {
		t.Fatal("result aggregates disagree with the per-VM record")
	}
}

// TestFaultObserverEvents checks the fault-path trace contract: the injected
// fault, the abort, and the retry all reach observers in time order.
func TestFaultObserverEvents(t *testing.T) {
	var events []trace.Event
	rec := trace.ObserverFunc(func(e trace.Event) { events = append(events, e) })
	res, err := faulty(9, WithObserver(rec)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.VM("vm0").Retries == 0 {
		t.Fatal("scenario did not exercise the retry path")
	}
	var sawFault, sawAbort, sawRetry bool
	last := -1.0
	for _, e := range events {
		if e.Time < last {
			t.Fatalf("event %v out of time order", e)
		}
		last = e.Time
		switch e.Kind {
		case trace.KindFaultInjected:
			sawFault = true
			if e.Detail != "dest-crash" || e.VM != "vm0" {
				t.Fatalf("fault event %+v malformed", e)
			}
			if sawAbort || sawRetry {
				t.Fatal("fault event after its own consequences")
			}
		case trace.KindMigrationAborted:
			sawAbort = true
			if !sawFault {
				t.Fatal("abort before the fault fired")
			}
			if e.Value <= 0 {
				t.Fatalf("abort event carries no wasted bytes: %+v", e)
			}
		case trace.KindMigrationRetried:
			sawRetry = true
			if !sawAbort {
				t.Fatal("retry before any abort")
			}
			if e.Round != 2 {
				t.Fatalf("retry attempt = %d, want 2", e.Round)
			}
		}
	}
	if !sawFault || !sawAbort || !sawRetry {
		t.Fatalf("missing fault events: fault=%v abort=%v retry=%v", sawFault, sawAbort, sawRetry)
	}
}

// TestExhaustedRetriesAreTerminal: a crash on every attempt exhausts the
// budget and the VM stays at the source, reported as Exhausted.
func TestExhaustedRetriesAreTerminal(t *testing.T) {
	set := NewSetup(ScaleSmall, 4)
	// Attempt 1 runs from the 8 s warm-up and is crashed at 9; the retry
	// starts at 10 after the 1 s backoff and is crashed at 11, exhausting
	// the two-attempt budget.
	s := New(WithConfig(set.Cluster),
		WithRetry(RetrySpec{MaxAttempts: 2, Backoff: 1}),
		WithFaults(
			FaultSpec{Kind: FaultDestCrash, VM: "vm0", At: 9},
			FaultSpec{Kind: FaultDeadline, VM: "vm0", At: 11},
		)).
		AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach,
			Workload: IOR(&set.IOR)}).
		MigrateAt("vm0", 1, set.Warmup)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	vm := res.VM("vm0")
	if vm.Migrated {
		t.Fatal("VM migrated despite a crash on every attempt")
	}
	if !vm.Exhausted {
		t.Fatal("exhausted retry budget not reported")
	}
	if vm.Node != 0 {
		t.Fatalf("VM ended on node %d, want source 0", vm.Node)
	}
	if vm.Aborts != 2 {
		t.Fatalf("aborts = %d, want 2 (both attempts)", vm.Aborts)
	}
}

// TestBackgroundTrafficSlowsMigration: cross traffic on the migration path
// must show up as background bytes and a longer migration.
func TestBackgroundTrafficSlowsMigration(t *testing.T) {
	set := NewSetup(ScaleSmall, 4)
	base := New(WithConfig(set.Cluster)).
		AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach,
			Workload: IOR(&set.IOR)}).
		MigrateAt("vm0", 1, set.Warmup)
	clean, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	noisy := New(WithConfig(set.Cluster),
		WithBackgroundTraffic(TrafficSpec{Src: 2, Dst: 1, Start: 0, Stop: 60})).
		AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach,
			Workload: IOR(&set.IOR)}).
		MigrateAt("vm0", 1, set.Warmup)
	res, err := noisy.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic["background"] <= 0 {
		t.Fatal("no background traffic accounted")
	}
	if res.VM("vm0").MigrationTime <= clean.VM("vm0").MigrationTime {
		t.Fatalf("migration under cross traffic (%.2f s) not slower than clean (%.2f s)",
			res.VM("vm0").MigrationTime, clean.VM("vm0").MigrationTime)
	}
}

// TestLinkDegradeSlowsMigration: halving the destination NIC during the
// migration window must lengthen the migration, and the link must recover.
func TestLinkDegradeSlowsMigration(t *testing.T) {
	set := NewSetup(ScaleSmall, 4)
	clean, err := New(WithConfig(set.Cluster)).
		AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach,
			Workload: IOR(&set.IOR)}).
		MigrateAt("vm0", 1, set.Warmup).Run()
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(WithConfig(set.Cluster),
		WithFaults(FaultSpec{Kind: FaultLinkDegrade, Node: 1, At: 8, Factor: 0.25, Duration: 20})).
		AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach,
			Workload: IOR(&set.IOR)}).
		MigrateAt("vm0", 1, set.Warmup).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.VM("vm0").MigrationTime <= clean.VM("vm0").MigrationTime {
		t.Fatalf("migration over degraded link (%.2f s) not slower than clean (%.2f s)",
			res.VM("vm0").MigrationTime, clean.VM("vm0").MigrationTime)
	}
}

// TestFaultValidation exercises every new validation error path.
func TestFaultValidation(t *testing.T) {
	set := NewSetup(ScaleSmall, 4)
	vm := VMSpec{Name: "a", Node: 0, Approach: cluster.OurApproach}
	cases := []struct {
		name string
		s    *Scenario
		want string
	}{
		{"migration past horizon", New(WithConfig(set.Cluster), WithHorizon(2)).
			AddVM(vm).MigrateAt("a", 1, 5), "past the horizon"},
		{"campaign past horizon", New(WithConfig(set.Cluster), WithHorizon(2)).
			AddVM(vm).Campaign(5, sched.Serial{}, Step{VM: "a", Dst: 1}), "past the horizon"},
		{"fault past horizon", New(WithConfig(set.Cluster), WithHorizon(2),
			WithFaults(FaultSpec{Kind: FaultDestCrash, VM: "a", At: 5})).
			AddVM(vm).MigrateAt("a", 1, 1), "past the horizon"},
		{"fault unknown VM", New(WithConfig(set.Cluster),
			WithFaults(FaultSpec{Kind: FaultDestCrash, VM: "ghost", At: 1})).
			AddVM(vm).MigrateAt("a", 1, 1), "unknown VM"},
		{"degrade restore past horizon", New(WithConfig(set.Cluster), WithHorizon(10),
			WithFaults(FaultSpec{Kind: FaultLinkDegrade, Node: 1, At: 5, Factor: 0.5, Duration: 100})).
			AddVM(vm).MigrateAt("a", 1, 1), "past the horizon"},
		{"degrade bad factor", New(WithConfig(set.Cluster),
			WithFaults(FaultSpec{Kind: FaultLinkDegrade, Node: 1, At: 1, Factor: 2, Duration: 1})).
			AddVM(vm).MigrateAt("a", 1, 1), "outside [0,1]"},
		{"degrade no duration", New(WithConfig(set.Cluster),
			WithFaults(FaultSpec{Kind: FaultLinkDegrade, Node: 1, At: 1, Factor: 0.5})).
			AddVM(vm).MigrateAt("a", 1, 1), "positive duration"},
		{"degrade node out of range", New(WithConfig(set.Cluster),
			WithFaults(FaultSpec{Kind: FaultLinkDegrade, Node: 99, At: 1, Factor: 0.5, Duration: 1})).
			AddVM(vm).MigrateAt("a", 1, 1), "out of range"},
		{"fault negative time", New(WithConfig(set.Cluster),
			WithFaults(FaultSpec{Kind: FaultDestCrash, VM: "a", At: -1})).
			AddVM(vm).MigrateAt("a", 1, 1), "negative time"},
		{"fault unknown kind", New(WithConfig(set.Cluster),
			WithFaults(FaultSpec{Kind: FaultKind(99), At: 1})).
			AddVM(vm).MigrateAt("a", 1, 1), "unknown kind"},
		{"traffic same node", New(WithConfig(set.Cluster),
			WithBackgroundTraffic(TrafficSpec{Src: 1, Dst: 1, Start: 0, Stop: 5})).
			AddVM(vm).MigrateAt("a", 1, 1), "distinct nodes"},
		{"traffic empty window", New(WithConfig(set.Cluster),
			WithBackgroundTraffic(TrafficSpec{Src: 0, Dst: 1, Start: 5, Stop: 5})).
			AddVM(vm).MigrateAt("a", 1, 1), "positive span"},
		{"traffic stop past horizon", New(WithConfig(set.Cluster), WithHorizon(10),
			WithBackgroundTraffic(TrafficSpec{Src: 0, Dst: 1, Start: 0, Stop: 50})).
			AddVM(vm).MigrateAt("a", 1, 1), "past the horizon"},
		{"traffic node out of range", New(WithConfig(set.Cluster),
			WithBackgroundTraffic(TrafficSpec{Src: 0, Dst: 42, Start: 0, Stop: 5})).
			AddVM(vm).MigrateAt("a", 1, 1), "out of range"},
		{"traffic negative rate", New(WithConfig(set.Cluster),
			WithBackgroundTraffic(TrafficSpec{Src: 0, Dst: 1, Start: 0, Stop: 5, Rate: -1})).
			AddVM(vm).MigrateAt("a", 1, 1), "negative rate"},
		{"negative retry", New(WithConfig(set.Cluster), WithRetry(RetrySpec{MaxAttempts: -1})).
			AddVM(vm).MigrateAt("a", 1, 1), "negative"},
	}
	for _, c := range cases {
		res, err := c.s.Run()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !errors.Is(err, ErrInvalidScenario) {
			t.Errorf("%s: error %v does not wrap ErrInvalidScenario", c.name, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if res != nil {
			t.Errorf("%s: validation failure returned a result", c.name)
		}
	}
}

// TestValidateRejectsNonFinite: NaN and ±Inf in any float field of the spec
// fail validation. Ordered comparisons are false for NaN, so without an
// explicit check such a spec would pass and then crash Run (an invalid link
// capacity, an event at a non-finite time, a panicking traffic process).
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	set := NewSetup(ScaleSmall, 4)
	vm := VMSpec{Name: "a", Node: 0, Approach: cluster.OurApproach}
	build := func(opts ...Option) *Scenario {
		return New(append([]Option{WithConfig(set.Cluster)}, opts...)...).AddVM(vm).MigrateAt("a", 1, 1)
	}
	degrade := func(f FaultSpec) Option {
		f.Kind, f.Node = FaultLinkDegrade, 1
		return WithFaults(f)
	}
	traffic := func(tr TrafficSpec) Option {
		tr.Src, tr.Dst = 0, 1
		return WithBackgroundTraffic(tr)
	}
	cases := []struct {
		name string
		s    *Scenario
	}{
		{"horizon NaN", build(WithHorizon(nan))},
		{"horizon +Inf", build(WithHorizon(inf))},
		{"sample interval +Inf", build(WithSampleInterval(inf))},
		{"migration at NaN", New(WithConfig(set.Cluster)).AddVM(vm).MigrateAt("a", 1, nan)},
		{"campaign at NaN", New(WithConfig(set.Cluster)).AddVM(vm).
			Campaign(nan, sched.Serial{}, Step{VM: "a", Dst: 1})},
		{"dest-crash at NaN", build(WithFaults(FaultSpec{Kind: FaultDestCrash, VM: "a", At: nan}))},
		{"degrade factor NaN", build(degrade(FaultSpec{At: 5, Factor: nan, Duration: 2}))},
		{"degrade duration NaN", build(degrade(FaultSpec{At: 5, Factor: 0.5, Duration: nan}))},
		{"degrade duration +Inf", build(degrade(FaultSpec{At: 5, Factor: 0.5, Duration: inf}))},
		{"partition duration NaN", build(WithFaults(FaultSpec{Kind: FaultPartition, Node: 1, At: 5, Duration: nan}))},
		{"traffic start NaN", build(traffic(TrafficSpec{Start: nan, Stop: 5}))},
		{"traffic stop +Inf", build(traffic(TrafficSpec{Start: 0, Stop: inf}))},
		{"traffic rate +Inf", build(traffic(TrafficSpec{Start: 0, Stop: 5, Rate: inf}))},
		{"traffic burst NaN", build(traffic(TrafficSpec{Start: 0, Stop: 5, Burst: nan}))},
		{"retry backoff NaN", build(WithRetry(RetrySpec{MaxAttempts: 2, Backoff: nan}))},
		{"retry factor +Inf", build(WithRetry(RetrySpec{MaxAttempts: 2, Backoff: 1, Factor: inf}))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("Run panicked: %v", v)
				}
			}()
			if err := c.s.Validate(); !errors.Is(err, ErrInvalidScenario) {
				t.Errorf("Validate = %v, want ErrInvalidScenario", err)
			}
			res, err := c.s.Run()
			if !errors.Is(err, ErrInvalidScenario) {
				t.Errorf("Run error = %v, want ErrInvalidScenario", err)
			}
			if res != nil {
				t.Errorf("validation failure returned a result")
			}
		})
	}
}

// TestCampaignWithFaultsRetries: a campaign under a crash fault records the
// retry in the campaign aggregates too.
func TestCampaignWithFaultsRetries(t *testing.T) {
	set := NewSetup(ScaleSmall, 6)
	s := New(WithConfig(set.Cluster),
		WithRetry(RetrySpec{MaxAttempts: 3, Backoff: 1}),
		WithFaults(FaultSpec{Kind: FaultDestCrash, VM: "vm0", At: 9}))
	for i, name := range []string{"vm0", "vm1"} {
		s.AddVM(VMSpec{Name: name, Node: i, Approach: cluster.OurApproach,
			Workload: IOR(&set.IOR)})
	}
	s.Campaign(set.Warmup, sched.AllAtOnce{}, Step{VM: "vm0", Dst: 2}, Step{VM: "vm1", Dst: 3})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Campaigns[0]
	if c.Retries != 1 {
		t.Fatalf("campaign retries = %d, want 1", c.Retries)
	}
	if c.WastedBytes <= 0 {
		t.Fatal("campaign wasted bytes not recorded")
	}
	if !res.VM("vm0").Migrated || !res.VM("vm1").Migrated {
		t.Fatal("campaign left a VM unmigrated")
	}
}

// TestOverlappingDegradeWindowsRejected: an inner degradation window would
// restore the link mid-way through an outer one; the scenario must refuse.
func TestOverlappingDegradeWindowsRejected(t *testing.T) {
	set := NewSetup(ScaleSmall, 4)
	vm := VMSpec{Name: "a", Node: 0, Approach: cluster.OurApproach}
	_, err := New(WithConfig(set.Cluster),
		WithFaults(
			FaultSpec{Kind: FaultLinkDegrade, Node: 1, At: 10, Factor: 0.5, Duration: 20},
			FaultSpec{Kind: FaultLinkDegrade, Node: 1, At: 15, Factor: 0.1, Duration: 5},
		)).
		AddVM(vm).MigrateAt("a", 1, 1).Run()
	if !errors.Is(err, ErrInvalidScenario) || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("overlapping degrade windows not rejected: %v", err)
	}
	// Same windows on different links are fine.
	_, err = New(WithConfig(set.Cluster),
		WithFaults(
			FaultSpec{Kind: FaultLinkDegrade, Node: 1, At: 10, Factor: 0.5, Duration: 5},
			FaultSpec{Kind: FaultLinkDegrade, Node: 2, At: 10, Factor: 0.5, Duration: 5},
			FaultSpec{Kind: FaultFabricDegrade, At: 10, Factor: 0.5, Duration: 5},
		)).
		AddVM(vm).MigrateAt("a", 1, 1).Run()
	if err != nil {
		t.Fatalf("non-overlapping windows rejected: %v", err)
	}
}

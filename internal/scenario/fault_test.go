package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/params"
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

// TestValidateRejectsNonFiniteBandwidth: a WithConfig testbed whose link
// bandwidth is NaN, ±Inf or not positive, or whose latency is NaN, +Inf or
// negative, fails validation. Such a bandwidth used to pass and then either
// panic in flow.NewLink or end the run early with a nil error.
func TestValidateRejectsNonFiniteBandwidth(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(tb *params.Testbed)
	}{
		{"NIC NaN", func(tb *params.Testbed) { tb.NICBandwidth = nan }},
		{"NIC +Inf", func(tb *params.Testbed) { tb.NICBandwidth = inf }},
		{"NIC negative", func(tb *params.Testbed) { tb.NICBandwidth = -1 }},
		{"disk NaN", func(tb *params.Testbed) { tb.DiskBandwidth = nan }},
		{"disk +Inf", func(tb *params.Testbed) { tb.DiskBandwidth = inf }},
		{"disk zero", func(tb *params.Testbed) { tb.DiskBandwidth = 0 }},
		{"fabric NaN", func(tb *params.Testbed) { tb.FabricBandwidth = nan }},
		{"fabric -Inf", func(tb *params.Testbed) { tb.FabricBandwidth = -inf }},
		{"network latency NaN", func(tb *params.Testbed) { tb.NetLatency = nan }},
		{"disk latency +Inf", func(tb *params.Testbed) { tb.DiskLatency = inf }},
		{"disk latency negative", func(tb *params.Testbed) { tb.DiskLatency = -1e-3 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("Run panicked: %v", v)
				}
			}()
			set := NewSetup(ScaleSmall, 4)
			c.edit(&set.Cluster.Testbed)
			s := New(WithConfig(set.Cluster)).
				AddVM(VMSpec{Name: "a", Node: 0, Approach: cluster.OurApproach, Workload: IOR(&set.IOR)}).
				MigrateAt("a", 1, 1)
			if err := s.Validate(); !errors.Is(err, ErrInvalidScenario) {
				t.Fatalf("Validate = %v, want ErrInvalidScenario", err)
			}
			res, err := s.Run()
			if !errors.Is(err, ErrInvalidScenario) {
				t.Errorf("Run error = %v, want ErrInvalidScenario", err)
			}
			if res != nil {
				t.Errorf("validation failure returned a result")
			}
		})
	}
}

// TestValidateRejectsBadMetadataLatency: a WithConfig cluster whose
// repository metadata latency is NaN, +Inf or negative fails validation.
// The PFS and the repository sleep it on every request, so NaN and +Inf
// used to pass and then crash the run at the first guest I/O of a
// pvfs-shared VM, and a negative value ran silently as zero.
func TestValidateRejectsBadMetadataLatency(t *testing.T) {
	for _, lat := range []float64{math.NaN(), math.Inf(1), -1} {
		t.Run(fmt.Sprint(lat), func(t *testing.T) {
			set := NewSetup(ScaleSmall, 4)
			set.Cluster.Repo.MetadataLatency = lat
			s := New(WithConfig(set.Cluster)).
				AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.PVFSShared, Workload: IOR(&set.IOR)})
			if err := s.Validate(); !errors.Is(err, ErrInvalidScenario) {
				t.Fatalf("Validate = %v, want ErrInvalidScenario", err)
			}
			if res, err := s.Run(); !errors.Is(err, ErrInvalidScenario) || res != nil {
				t.Errorf("Run = (%v, %v), want (nil, ErrInvalidScenario)", res, err)
			}
		})
	}
}

// TestValidateRejectsBadGeometry: a WithConfig cluster whose image, chunk
// or stripe size is not positive, or whose chunk and stripe sizes do not
// nest, fails validation. Each used to pass and then panic inside Run.
func TestValidateRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name string
		edit func(c *cluster.Config)
	}{
		{"chunk size zero", func(c *cluster.Config) { c.Testbed.ChunkSize = 0 }},
		{"chunk size negative", func(c *cluster.Config) { c.Testbed.ChunkSize = -c.Repo.StripeSize }},
		{"image size zero", func(c *cluster.Config) { c.Testbed.ImageSize = 0 }},
		{"stripe size zero", func(c *cluster.Config) { c.Repo.StripeSize = 0 }},
		{"stripe not nesting with chunk", func(c *cluster.Config) { c.Repo.StripeSize = c.Testbed.ChunkSize * 3 / 2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("Run panicked: %v", v)
				}
			}()
			set := NewSetup(ScaleSmall, 4)
			c.edit(&set.Cluster)
			s := New(WithConfig(set.Cluster)).
				AddVM(VMSpec{Name: "a", Node: 0, Approach: cluster.OurApproach, Workload: IOR(&set.IOR)}).
				MigrateAt("a", 1, 1)
			if err := s.Validate(); !errors.Is(err, ErrInvalidScenario) {
				t.Fatalf("Validate = %v, want ErrInvalidScenario", err)
			}
			if res, err := s.Run(); !errors.Is(err, ErrInvalidScenario) || res != nil {
				t.Errorf("Run = (%v, %v), want (nil, ErrInvalidScenario)", res, err)
			}
		})
	}
}

// TestValidateRejectsBadConfig: a WithConfig cluster whose guest,
// hypervisor or migration-manager tunables a run cannot survive fails
// validation. Each case used to pass it: a zero page size, batch or RAM,
// a memory page larger than the RAM, and a NaN migration speed or base
// prefetch rate panicked out of Run; a NaN or infinite pull latency, a
// zero cache bandwidth and a zero cache region ended in a
// *sim.ProcPanicError; a zero metadata interval committed without end
// until the horizon. A boot footprint or working set the RAM cannot hold
// panicked out of Run or ended in a *sim.ProcPanicError from the workload;
// a negative boot footprint ran with the allocator's cursor below zero.
func TestValidateRejectsBadConfig(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		edit func(c *cluster.Config)
		// w, when set, replaces the default IOR workload.
		w func(set Setup) WorkloadSpec
	}{
		{"guest cache page zero", func(c *cluster.Config) { c.Guest.CachePage = 0 }, nil},
		{"manager push batch zero", func(c *cluster.Config) { c.Manager.PushBatch = 0 }, nil},
		{"manager pull batch negative", func(c *cluster.Config) { c.Manager.PullBatch = -1 }, nil},
		{"hypervisor memory page zero", func(c *cluster.Config) { c.HV.MemPageSize = 0 }, nil},
		{"hypervisor memory page above RAM", func(c *cluster.Config) { c.HV.MemPageSize = c.Testbed.RAM + 1 }, nil},
		{"testbed RAM zero", func(c *cluster.Config) { c.Testbed.RAM = 0 }, nil},
		{"hypervisor migration speed NaN", func(c *cluster.Config) { c.HV.MigrationSpeed = nan }, nil},
		{"manager base prefetch rate NaN", func(c *cluster.Config) { c.Manager.BasePrefetchRate = nan }, nil},
		{"manager pull request latency NaN", func(c *cluster.Config) { c.Manager.PullRequestLatency = nan }, nil},
		{"manager pull request latency +Inf", func(c *cluster.Config) { c.Manager.PullRequestLatency = math.Inf(1) }, nil},
		{"guest cache write bandwidth zero", func(c *cluster.Config) { c.Guest.CacheWriteBandwidth = 0 }, nil},
		{"guest cache read bandwidth zero", func(c *cluster.Config) { c.Guest.CacheReadBandwidth = 0 }, nil},
		{"guest cache region zero", func(c *cluster.Config) { c.Guest.CacheRegion = 0 }, nil},
		{"guest metadata interval zero", func(c *cluster.Config) { c.Guest.MetadataEvery = 0 }, nil},
		{"hypervisor booted footprint negative", func(c *cluster.Config) { c.HV.BootedFootprint = -c.Testbed.RAM }, nil},
		{"hypervisor booted footprint twice RAM", func(c *cluster.Config) { c.HV.BootedFootprint = 2 * c.Testbed.RAM }, nil},
		{"AsyncWR working set fills RAM", func(*cluster.Config) {}, func(set Setup) WorkloadSpec {
			p := set.AsyncWR
			p.WorkingSet = set.Cluster.Testbed.RAM
			return AsyncWR(&p, 0)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("Run panicked: %v", v)
				}
			}()
			set := NewSetup(ScaleSmall, 4)
			c.edit(&set.Cluster)
			w := IOR(&set.IOR)
			if c.w != nil {
				w = c.w(set)
			}
			s := New(WithConfig(set.Cluster)).
				AddVM(VMSpec{Name: "a", Node: 0, Approach: cluster.OurApproach, Workload: w}).
				MigrateAt("a", 1, 1)
			if err := s.Validate(); !errors.Is(err, ErrInvalidScenario) {
				t.Fatalf("Validate = %v, want ErrInvalidScenario", err)
			}
			if res, err := s.Run(); !errors.Is(err, ErrInvalidScenario) || res != nil {
				t.Errorf("Run = (%v, %v), want (nil, ErrInvalidScenario)", res, err)
			}
		})
	}
}

// TestValidateRejectsBadWorkloadParams: workload parameters a run cannot
// survive fail validation. Each case used to pass it: the IOR block size of
// zero then spun forever, the others ended in a process panic.
func TestValidateRejectsBadWorkloadParams(t *testing.T) {
	set := NewSetup(ScaleSmall, 4)
	ior := func(edit func(p *params.IOR)) WorkloadSpec {
		p := set.IOR
		edit(&p)
		return IOR(&p)
	}
	awr := func(edit func(p *params.AsyncWR)) WorkloadSpec {
		p := set.AsyncWR
		edit(&p)
		return AsyncWR(&p, 0)
	}
	rw := func(edit func(p *params.Rewrite)) WorkloadSpec {
		p := params.DefaultRewrite()
		edit(&p)
		return Rewrite(&p)
	}
	cases := []struct {
		name string
		w    WorkloadSpec
	}{
		{"IOR block size zero", ior(func(p *params.IOR) { p.BlockSize = 0 })},
		{"IOR block size negative", ior(func(p *params.IOR) { p.BlockSize = -p.BlockSize })},
		{"IOR file size negative", ior(func(p *params.IOR) { p.FileSize = -1 })},
		{"IOR iterations negative", ior(func(p *params.IOR) { p.Iterations = -1 })},
		{"AsyncWR compute time NaN", awr(func(p *params.AsyncWR) { p.ComputeTime = math.NaN() })},
		{"AsyncWR compute time negative", awr(func(p *params.AsyncWR) { p.ComputeTime = -1 })},
		{"AsyncWR dirty rate +Inf", awr(func(p *params.AsyncWR) { p.MemoryDirtyRate = math.Inf(1) })},
		{"AsyncWR data per iteration negative", awr(func(p *params.AsyncWR) { p.DataPerIter = -1 })},
		{"Rewrite interval NaN", rw(func(p *params.Rewrite) { p.Interval = math.NaN() })},
		{"Rewrite interval negative", rw(func(p *params.Rewrite) { p.Interval = -1 })},
		{"Rewrite hot size negative", rw(func(p *params.Rewrite) { p.HotBytes = -1 })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(WithConfig(set.Cluster)).
				AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach, Workload: c.w})
			if err := s.Validate(); !errors.Is(err, ErrInvalidScenario) {
				t.Fatalf("Validate = %v, want ErrInvalidScenario", err)
			}
			if res, err := s.Run(); !errors.Is(err, ErrInvalidScenario) || res != nil {
				t.Errorf("Run = (%v, %v), want (nil, ErrInvalidScenario)", res, err)
			}
		})
	}
}

// TestValidateRejectsBadCM1Params: the CM1 ranks' times, rates and sizes
// get the same checks as a per-VM workload's.
func TestValidateRejectsBadCM1Params(t *testing.T) {
	for _, edit := range []func(p *params.CM1){
		func(p *params.CM1) { p.ComputePerIntvl = math.NaN() },
		func(p *params.CM1) { p.ComputePerIntvl = -1 },
		func(p *params.CM1) { p.MemoryDirtyRate = math.Inf(1) },
		func(p *params.CM1) { p.OutputSize = -1 },
		func(p *params.CM1) { p.HaloBytes = -1 },
	} {
		p := params.CM1{Procs: 1, GridX: 1, GridY: 1, Intervals: 1, ComputePerIntvl: 1, OutputSize: params.MB,
			HaloBytes: params.MB, MemoryDirtyRate: params.MB, WorkingSet: params.MB}
		edit(&p)
		s := New(WithNodes(2), WithCM1(p)).AddVM(VMSpec{Name: "r0", Node: 0, Approach: cluster.OurApproach})
		if err := s.Validate(); !errors.Is(err, ErrInvalidScenario) {
			t.Errorf("Validate(%+v) = %v, want ErrInvalidScenario", p, err)
		}
	}
}

// TestZeroBlockSizeFailsPromptly: an IOR spec with a zero block size is a
// prompt validation error under RunContext, not a run that spins past its
// deadline between two events, where the interrupt hook is never polled.
func TestZeroBlockSizeFailsPromptly(t *testing.T) {
	set := NewSetup(ScaleSmall, 4)
	p := set.IOR
	p.BlockSize = 0
	s := New(WithConfig(set.Cluster)).
		AddVM(VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach, Workload: IOR(&p)})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.RunContext(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInvalidScenario) {
			t.Fatalf("RunContext = %v, want ErrInvalidScenario", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext still running 3 s past its deadline")
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

package sched

import (
	"math"
	"strconv"
	"testing"

	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// runCampaign executes n unit-duration jobs under pol on a fresh engine and
// returns the campaign stats.
func runCampaign(t *testing.T, n int, pol Policy, dur float64) *metrics.Campaign {
	t.Helper()
	eng := sim.New()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name:     "j" + strconv.Itoa(i),
			Run:      func(p *sim.Proc) error { p.Sleep(dur); return nil },
			Downtime: func() float64 { return 0.01 },
		}
	}
	var c *metrics.Campaign
	eng.Go("campaign", func(p *sim.Proc) {
		c = New(eng, nil).Run(p, jobs, pol, Retry{})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c == nil {
		t.Fatal("campaign did not complete")
	}
	return c
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPolicyWidths(t *testing.T) {
	cases := []struct {
		pol      Policy
		makespan float64
		peak     int
	}{
		{AllAtOnce{}, 1, 6},
		{Serial{}, 6, 1},
		{BatchedK{K: 2}, 3, 2},
		{BatchedK{K: 4}, 2, 4},
		{BatchedK{}, 1, 6}, // K<=0 means unlimited
	}
	for _, tc := range cases {
		c := runCampaign(t, 6, tc.pol, 1)
		if !near(c.Makespan(), tc.makespan) {
			t.Errorf("%s: makespan = %v, want %v", tc.pol.Name(), c.Makespan(), tc.makespan)
		}
		if c.PeakConcurrent != tc.peak {
			t.Errorf("%s: peak = %d, want %d", tc.pol.Name(), c.PeakConcurrent, tc.peak)
		}
		if c.Jobs != 6 || len(c.JobStats) != 6 {
			t.Errorf("%s: job accounting %d/%d", tc.pol.Name(), c.Jobs, len(c.JobStats))
		}
		if !near(c.TotalDowntime, 0.06) {
			t.Errorf("%s: downtime = %v", tc.pol.Name(), c.TotalDowntime)
		}
		if !near(c.TotalMigrationTime(), 6) || !near(c.AvgMigrationTime(), 1) {
			t.Errorf("%s: migration time sum %v avg %v", tc.pol.Name(),
				c.TotalMigrationTime(), c.AvgMigrationTime())
		}
	}
}

func TestSerialRunsInSubmissionOrder(t *testing.T) {
	c := runCampaign(t, 4, Serial{}, 2)
	for i, j := range c.JobStats {
		if !near(j.Started, float64(2*i)) || !near(j.Finished, float64(2*i+2)) {
			t.Errorf("job %d ran [%v,%v], want [%d,%d]", i, j.Started, j.Finished, 2*i, 2*i+2)
		}
		if !near(j.Wait(), float64(2*i)) {
			t.Errorf("job %d wait = %v", i, j.Wait())
		}
	}
}

func TestCycleAwareWaitsForWindow(t *testing.T) {
	eng := sim.New()
	jobs := []Job{{
		Name:  "cyclic",
		Run:   func(p *sim.Proc) error { p.Sleep(1); return nil },
		LowIO: func() bool { return eng.Now() >= 5 },
	}}
	var c *metrics.Campaign
	eng.Go("campaign", func(p *sim.Proc) {
		c = New(eng, nil).Run(p, jobs, CycleAware{Poll: 0.5}, Retry{})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c.JobStats[0].Started < 5 {
		t.Errorf("started at %v before the low-I/O window at 5", c.JobStats[0].Started)
	}
	if c.JobStats[0].Started > 5.6 {
		t.Errorf("started at %v, poll interval 0.5 should admit by 5.5", c.JobStats[0].Started)
	}
}

func TestCycleAwareDeferBudget(t *testing.T) {
	eng := sim.New()
	jobs := []Job{{
		Name:  "never-quiet",
		Run:   func(p *sim.Proc) error { p.Sleep(1); return nil },
		LowIO: func() bool { return false },
	}}
	var c *metrics.Campaign
	eng.Go("campaign", func(p *sim.Proc) {
		c = New(eng, nil).Run(p, jobs, CycleAware{Poll: 0.5, MaxDefer: 3}, Retry{})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := c.JobStats[0].Started
	if got < 3 || got > 3.6 {
		t.Errorf("started at %v, defer budget 3 should force admission near 3", got)
	}
}

func TestCampaignTrafficAccounting(t *testing.T) {
	eng := sim.New()
	net := flow.NewNet(eng)
	link := flow.NewLink("wire", 100)
	jobs := make([]Job, 3)
	for i := range jobs {
		jobs[i] = Job{
			Name: "xfer" + strconv.Itoa(i),
			Run: func(p *sim.Proc) error {
				net.Transfer(p, []*flow.Link{link}, 500, flow.TagMemory)
				return nil
			},
		}
	}
	var c *metrics.Campaign
	eng.Go("campaign", func(p *sim.Proc) {
		c = New(eng, net).Run(p, jobs, AllAtOnce{}, Retry{})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(c.TransferredBytes, 1500) {
		t.Errorf("transferred = %v, want 1500", c.TransferredBytes)
	}
	if got := c.TagBytesFor(flow.TagMemory.String()); !near(got, 1500) {
		t.Errorf("memory tag bytes = %v", got)
	}
	if c.PeakFlows < 2 {
		t.Errorf("peak flows = %d, want >= 2 for three concurrent transfers", c.PeakFlows)
	}
	// The link is the bottleneck: three fair-shared 500-byte transfers over
	// 100 B/s finish together at t=15.
	if !near(c.Makespan(), 15) {
		t.Errorf("makespan = %v, want 15", c.Makespan())
	}
}

func TestCampaignDeterminism(t *testing.T) {
	for _, pol := range Policies(6) {
		a := runCampaign(t, 6, pol, 1.5)
		b := runCampaign(t, 6, pol, 1.5)
		if a.Makespan() != b.Makespan() || a.TotalDowntime != b.TotalDowntime ||
			a.PeakConcurrent != b.PeakConcurrent {
			t.Errorf("%s: repeated campaigns differ: %+v vs %+v", pol.Name(), a, b)
		}
		for i := range a.JobStats {
			if a.JobStats[i] != b.JobStats[i] {
				t.Errorf("%s: job %d stats differ", pol.Name(), i)
			}
		}
	}
}

func TestPoliciesSet(t *testing.T) {
	pols := Policies(8)
	if len(pols) != 4 {
		t.Fatalf("policy set size %d", len(pols))
	}
	names := map[string]bool{}
	for _, p := range pols {
		names[p.Name()] = true
	}
	for _, want := range []string{"all-at-once", "serial", "batched-2", "cycle-aware"} {
		if !names[want] {
			t.Errorf("policy set missing %s (have %v)", want, names)
		}
	}
	if w := (BatchedK{K: 5}).Width(3); w != 5 {
		t.Errorf("BatchedK width = %d", w) // Run clamps to n later
	}
}

// flakyJob fails its first n attempts, then succeeds.
func flakyJob(name string, failures int, dur float64) Job {
	attempts := 0
	return Job{
		Name: name,
		Run: func(p *sim.Proc) error {
			attempts++
			p.Sleep(dur)
			if attempts <= failures {
				return errAborted
			}
			return nil
		},
	}
}

var errAborted = errTest("aborted")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestRetryCompletesAfterFailures(t *testing.T) {
	eng := sim.New()
	jobs := []Job{flakyJob("flaky", 2, 1)}
	var c *metrics.Campaign
	eng.Go("campaign", func(p *sim.Proc) {
		c = New(eng, nil).Run(p, jobs, Serial{}, Retry{MaxAttempts: 5, Backoff: 2, Factor: 2})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := c.JobStats[0]
	if st.Attempts != 3 || st.Exhausted {
		t.Fatalf("attempts=%d exhausted=%v, want 3 attempts completed", st.Attempts, st.Exhausted)
	}
	if c.Retries != 2 || c.ExhaustedJobs != 0 {
		t.Fatalf("campaign retries=%d exhausted=%d, want 2,0", c.Retries, c.ExhaustedJobs)
	}
	// Attempt 1 [0,1], backoff 2, attempt 2 [3,4], backoff 4, attempt 3 [8,9].
	if !near(st.Finished, 9) {
		t.Fatalf("finished = %v, want 9 (exponential backoff)", st.Finished)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	eng := sim.New()
	jobs := []Job{flakyJob("doomed", 99, 1), flakyJob("fine", 0, 1)}
	var c *metrics.Campaign
	eng.Go("campaign", func(p *sim.Proc) {
		c = New(eng, nil).Run(p, jobs, AllAtOnce{}, Retry{MaxAttempts: 3, Backoff: 1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.JobStats[0].Exhausted || c.JobStats[0].Attempts != 3 {
		t.Fatalf("doomed: attempts=%d exhausted=%v, want 3,true",
			c.JobStats[0].Attempts, c.JobStats[0].Exhausted)
	}
	if c.JobStats[1].Exhausted || c.JobStats[1].Attempts != 1 {
		t.Fatalf("fine: attempts=%d exhausted=%v, want 1,false",
			c.JobStats[1].Attempts, c.JobStats[1].Exhausted)
	}
	if c.Retries != 2 || c.ExhaustedJobs != 1 {
		t.Fatalf("campaign retries=%d exhausted=%d, want 2,1", c.Retries, c.ExhaustedJobs)
	}
}

func TestRetryReleasesSlotDuringBackoff(t *testing.T) {
	// Serial admission: while the flaky job backs off, the other job must
	// get the slot instead of the campaign deadlocking or serializing behind
	// the backoff.
	eng := sim.New()
	jobs := []Job{flakyJob("flaky", 1, 1), flakyJob("ready", 0, 1)}
	var c *metrics.Campaign
	eng.Go("campaign", func(p *sim.Proc) {
		c = New(eng, nil).Run(p, jobs, Serial{}, Retry{MaxAttempts: 2, Backoff: 5})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// flaky attempt 1 [0,1]; ready runs [1,2]; flaky retries at 6, done 7.
	if !near(c.JobStats[1].Finished, 2) {
		t.Fatalf("ready finished = %v, want 2 (slot released during backoff)", c.JobStats[1].Finished)
	}
	if !near(c.JobStats[0].Finished, 7) {
		t.Fatalf("flaky finished = %v, want 7", c.JobStats[0].Finished)
	}
}

func TestRetryZeroBudgetIsTerminal(t *testing.T) {
	eng := sim.New()
	jobs := []Job{flakyJob("fail", 1, 1)}
	var c *metrics.Campaign
	eng.Go("campaign", func(p *sim.Proc) {
		c = New(eng, nil).Run(p, jobs, Serial{}, Retry{})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.JobStats[0].Exhausted || c.JobStats[0].Attempts != 1 {
		t.Fatalf("attempts=%d exhausted=%v, want 1,true", c.JobStats[0].Attempts, c.JobStats[0].Exhausted)
	}
}

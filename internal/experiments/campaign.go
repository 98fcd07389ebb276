package experiments

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/scenario"
	"github.com/hybridmig/hybridmig/internal/sched"
)

// CampaignRow is one cell of the campaign experiment: one approach migrating
// a fleet of IOR VMs under one orchestration policy.
type CampaignRow struct {
	Approach cluster.Approach `json:"approach"`
	Policy   string           `json:"policy"`
	VMs      int              `json:"vms"`

	Makespan         float64 `json:"makespan_s"`        // first submission to last completion, seconds
	AvgMigrationTime float64 `json:"avg_migration_s"`   // mean per-VM migration time, seconds
	TotalDowntimeMS  float64 `json:"total_downtime_ms"` // cumulative stop-and-copy across the fleet
	TrafficGB        float64 `json:"traffic_gb"`        // bytes moved while the campaign ran
	PeakConcurrent   int     `json:"peak_concurrent"`   // most migrations in flight at once
}

// CampaignVMs returns the fleet size for the scale: 8 at small scale (the
// determinism test migrates all of them concurrently), 16 at paper scale.
func CampaignVMs(s Scale) int {
	if s == ScalePaper {
		return 16
	}
	return 8
}

// CampaignPolicies returns the four policies the experiment compares, sized
// for an n-VM fleet. The cycle-aware defer budget is a couple of IOR
// write/read cycles so deferred VMs still migrate promptly.
func CampaignPolicies(s Scale, n int) []sched.Policy {
	k := n / 4
	if k < 2 {
		k = 2
	}
	maxDefer := 10.0
	if s == ScalePaper {
		maxDefer = 120
	}
	return []sched.Policy{
		sched.AllAtOnce{},
		sched.Serial{},
		sched.BatchedK{K: k},
		sched.CycleAware{MaxDefer: maxDefer},
	}
}

// RunCampaign runs the full campaign experiment: every approach under every
// policy, a fleet of IOR VMs migrating together after the warm-up. The
// approach x policy cells are independent runs and fan out over the
// SetParallel budget, rows landing by cell index.
func RunCampaign(s Scale) []CampaignRow {
	type cell struct {
		a   cluster.Approach
		pol sched.Policy
	}
	n := CampaignVMs(s)
	var cells []cell
	for _, a := range cluster.Approaches() {
		for _, pol := range CampaignPolicies(s, n) {
			cells = append(cells, cell{a, pol})
		}
	}
	rows := make([]CampaignRow, len(cells))
	scenario.ForEach(len(cells), ParallelWorkers(), func(i int) {
		rows[i] = campaignRow(cells[i].a, RunCampaignOne(s, cells[i].a, cells[i].pol))
	})
	return rows
}

// RunCampaignApproach runs the four policies for one approach.
func RunCampaignApproach(s Scale, a cluster.Approach) []CampaignRow {
	n := CampaignVMs(s)
	pols := CampaignPolicies(s, n)
	rows := make([]CampaignRow, len(pols))
	scenario.ForEach(len(pols), ParallelWorkers(), func(i int) {
		rows[i] = campaignRow(a, RunCampaignOne(s, a, pols[i]))
	})
	return rows
}

// campaignRow summarizes one finished campaign as a report row.
func campaignRow(a cluster.Approach, c *metrics.Campaign) CampaignRow {
	return CampaignRow{
		Approach:         a,
		Policy:           c.Policy,
		VMs:              c.Jobs,
		Makespan:         c.Makespan(),
		AvgMigrationTime: c.AvgMigrationTime(),
		TotalDowntimeMS:  c.TotalDowntime * 1000,
		TrafficGB:        metrics.GB(c.TransferredBytes),
		PeakConcurrent:   c.PeakConcurrent,
	}
}

// RunCampaignOne executes one campaign: CampaignVMs IOR VMs on distinct
// source nodes, all migrating after the warm-up under the policy. The
// destinations deliberately pack two migrations per target node, so
// concurrent admission contends on destination NICs and disks — the
// interference that admission control exists to manage.
func RunCampaignOne(s Scale, a cluster.Approach, pol sched.Policy) *metrics.Campaign {
	n := CampaignVMs(s)
	set := NewSetup(s, n+(n+1)/2)
	ior := set.IOR
	if s == ScaleSmall {
		// Enough iterations to keep I/O active through a serial campaign
		// without dragging the drain-out phase.
		ior.Iterations = 30
	}
	sc := scenario.New(scenario.WithConfig(set.Cluster))
	steps := make([]scenario.Step, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("vm%02d", i)
		sc.AddVM(scenario.VMSpec{Name: name, Node: i, Approach: a, Workload: scenario.IOR(&ior)})
		steps[i] = scenario.Step{VM: name, Dst: n + i/2}
	}
	sc.Campaign(set.Warmup, pol, steps...)
	r, err := sc.Run()
	if err != nil {
		panic("experiments: campaign did not complete for " + string(a) + "/" + pol.Name() + ": " + err.Error())
	}
	for i := range r.VMs {
		if !r.VMs[i].Migrated {
			panic(fmt.Sprintf("experiments: campaign migration %d incomplete for %s/%s", i, a, pol.Name()))
		}
	}
	return r.Campaigns[0]
}

// CampaignTables renders the campaign comparison, one table per metric,
// approaches as rows and policies as columns.
func CampaignTables(s Scale, rows []CampaignRow) []*metrics.Table {
	pols := CampaignPolicies(s, CampaignVMs(s))
	head := make([]string, 0, len(pols)+1)
	head = append(head, "approach")
	for _, p := range pols {
		head = append(head, p.Name())
	}
	n := CampaignVMs(s)
	tm := metrics.NewTable(fmt.Sprintf("Campaign (%d IOR VMs): makespan (s, lower is better)", n), head...)
	ta := metrics.NewTable("Campaign: avg migration time per VM (s)", head...)
	td := metrics.NewTable("Campaign: total downtime (ms)", head...)
	tt := metrics.NewTable("Campaign: traffic while migrating (GB)", head...)
	byKey := map[string]CampaignRow{}
	for _, r := range rows {
		byKey[string(r.Approach)+"/"+r.Policy] = r
	}
	for _, a := range cluster.Approaches() {
		rm := []any{string(a)}
		ra := []any{string(a)}
		rd := []any{string(a)}
		rt := []any{string(a)}
		for _, p := range pols {
			r := byKey[string(a)+"/"+p.Name()]
			rm = append(rm, r.Makespan)
			ra = append(ra, r.AvgMigrationTime)
			rd = append(rd, r.TotalDowntimeMS)
			rt = append(rt, r.TrafficGB)
		}
		tm.AddRow(rm...)
		ta.AddRow(ra...)
		td.AddRow(rd...)
		tt.AddRow(rt...)
	}
	return []*metrics.Table{tm, ta, td, tt}
}

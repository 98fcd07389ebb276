package experiments

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/scenario"
)

// Fig4Row is one point of Figures 4(a)-(c): one approach at one concurrency
// level.
type Fig4Row struct {
	Approach    cluster.Approach `json:"approach"`
	Concurrency int              `json:"concurrency"`

	AvgMigrationTime float64 `json:"avg_migration_s"` // Fig. 4(a), seconds per instance
	TrafficGB        float64 `json:"traffic_gb"`      // Fig. 4(b)
	DegradationPct   float64 `json:"degradation_pct"` // Fig. 4(c), % of migration-free potential
}

// Fig4Concurrencies returns the x-axis of Figure 4 for the scale.
func Fig4Concurrencies(s Scale) []int {
	if s == ScalePaper {
		return []int{1, 10, 20, 30}
	}
	return []int{1, 3, 6}
}

// fig4Sources returns the number of AsyncWR source VMs.
func fig4Sources(s Scale) int {
	if s == ScalePaper {
		return 30
	}
	return 6
}

// RunFig4 reproduces Figure 4: a fixed population of AsyncWR VMs, of which
// the first K migrate simultaneously after the warm-up delay. Degradation
// follows the paper's definition — computation lost as a percent of "the
// maximum computational potential achieved in a migration-free scenario" —
// so every approach is normalized against the best migration-free run
// (local storage): pvfs-shared pays for its remote I/O even before any
// migration starts, exactly as in Figure 4(c).
func RunFig4(s Scale) []Fig4Row {
	// Phase 1 — baselines: migration-free runs per approach fan out over the
	// SetParallel budget; the reference is the best of them. The barrier
	// between phases is inherent: every cell's degradation normalizes
	// against the best baseline.
	approaches := cluster.Approaches()
	bases := make([]fig4Result, len(approaches))
	scenario.ForEach(len(approaches), ParallelWorkers(), func(i int) {
		bases[i] = runFig4One(s, approaches[i], 0)
	})
	var bestBase float64
	for _, base := range bases {
		if base.counter > bestBase {
			bestBase = base.counter
		}
	}
	// Phase 2 — the approach x concurrency grid, rows by cell index.
	type cell struct {
		a cluster.Approach
		k int
	}
	var cells []cell
	for _, a := range approaches {
		for _, k := range Fig4Concurrencies(s) {
			cells = append(cells, cell{a, k})
		}
	}
	rows := make([]Fig4Row, len(cells))
	scenario.ForEach(len(cells), ParallelWorkers(), func(i int) {
		r := runFig4One(s, cells[i].a, cells[i].k)
		r.DegradationPct = metrics.Pct(1 - metrics.Ratio(r.counter, bestBase))
		if r.DegradationPct < 0 {
			r.DegradationPct = 0
		}
		rows[i] = r.Fig4Row
	})
	return rows
}

// fig4Result carries the row plus the raw counter for degradation math.
type fig4Result struct {
	Fig4Row
	counter float64
}

func runFig4One(s Scale, a cluster.Approach, concurrent int) fig4Result {
	sources := fig4Sources(s)
	set := NewSetup(s, 2*sources)
	sc := scenario.New(scenario.WithConfig(set.Cluster))
	for i := 0; i < sources; i++ {
		sc.AddVM(scenario.VMSpec{
			Name: fmt.Sprintf("vm%02d", i), Node: i, Approach: a,
			Workload: scenario.AsyncWR(&set.AsyncWR, set.Warmup+set.Horizon),
		})
	}
	// Simultaneous migrations of the first K instances to distinct targets.
	for k := 0; k < concurrent; k++ {
		sc.MigrateAt(fmt.Sprintf("vm%02d", k), sources+k, set.Warmup)
	}
	r, err := sc.Run()
	if err != nil {
		panic(fmt.Sprintf("experiments: fig4 %s n=%d: %v", a, concurrent, err))
	}

	res := fig4Result{Fig4Row: Fig4Row{Approach: a, Concurrency: concurrent}}
	var sumMig float64
	for k := 0; k < concurrent; k++ {
		if !r.VMs[k].Migrated {
			panic(fmt.Sprintf("experiments: fig4 migration %d incomplete for %s", k, a))
		}
		sumMig += r.VMs[k].MigrationTime
	}
	if concurrent > 0 {
		res.AvgMigrationTime = sumMig / float64(concurrent)
	}
	res.TrafficGB = metrics.GB(r.MigrationTraffic(a))
	res.counter = r.TotalCounter()
	return res
}

// Fig4Tables renders the three panels.
func Fig4Tables(s Scale, rows []Fig4Row) []*metrics.Table {
	concs := Fig4Concurrencies(s)
	head := make([]string, 0, len(concs)+1)
	head = append(head, "approach")
	for _, k := range concs {
		head = append(head, fmt.Sprintf("n=%d", k))
	}
	ta := metrics.NewTable("Figure 4(a): avg migration time per instance (s, lower is better)", head...)
	tbt := metrics.NewTable("Figure 4(b): total network traffic (GB, lower is better)", head...)
	tc := metrics.NewTable("Figure 4(c): performance degradation (% of max, lower is better)", head...)
	byKey := map[string]Fig4Row{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.Approach, r.Concurrency)] = r
	}
	for _, a := range cluster.Approaches() {
		ra := []any{string(a)}
		rb := []any{string(a)}
		rc := []any{string(a)}
		for _, k := range concs {
			r := byKey[fmt.Sprintf("%s/%d", a, k)]
			ra = append(ra, r.AvgMigrationTime)
			rb = append(rb, r.TrafficGB)
			rc = append(rc, r.DegradationPct)
		}
		ta.AddRow(ra...)
		tbt.AddRow(rb...)
		tc.AddRow(rc...)
	}
	return []*metrics.Table{ta, tbt, tc}
}

package experiments

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/scenario"
)

// Fig5Row is one point of Figures 5(a)-(c): one approach at one number of
// successive migrations under the CM1 application.
type Fig5Row struct {
	Approach   cluster.Approach `json:"approach"`
	Migrations int              `json:"migrations"`

	CumulMigrationTime float64 `json:"cumul_migration_s"`  // Fig. 5(a), summed over all migrations (s)
	TrafficGB          float64 `json:"traffic_gb"`         // Fig. 5(b), CM1 communication excluded
	RuntimeIncrease    float64 `json:"runtime_increase_s"` // Fig. 5(c), vs the migration-free run (s)
}

// Fig5Migrations returns the x-axis of Figure 5 for the scale.
func Fig5Migrations(s Scale) []int {
	if s == ScalePaper {
		return []int{1, 2, 3, 4, 5, 6, 7}
	}
	return []int{1, 2, 3}
}

// RunFig5 reproduces Figure 5: CM1 ranks (one per source node) run the
// stencil; migrations of sources 0..M-1 start Gap seconds apart. Runtime
// increase compares against a migration-free run of the same approach.
func RunFig5(s Scale) []Fig5Row {
	// Phase 1 — the migration-free base run per approach (the Fig. 5(c)
	// reference); phase 2 — the approach x migrations grid. Both fan out
	// over the SetParallel budget with rows landing by cell index.
	approaches := cluster.Approaches()
	bases := make([]fig5Result, len(approaches))
	scenario.ForEach(len(approaches), ParallelWorkers(), func(i int) {
		bases[i] = runFig5One(s, approaches[i], 0)
	})
	baseBy := make(map[cluster.Approach]float64, len(approaches))
	for i, a := range approaches {
		baseBy[a] = bases[i].runtime
	}
	type cell struct {
		a cluster.Approach
		m int
	}
	var cells []cell
	for _, a := range approaches {
		for _, m := range Fig5Migrations(s) {
			cells = append(cells, cell{a, m})
		}
	}
	rows := make([]Fig5Row, len(cells))
	scenario.ForEach(len(cells), ParallelWorkers(), func(i int) {
		r := runFig5One(s, cells[i].a, cells[i].m)
		r.RuntimeIncrease = r.runtime - baseBy[cells[i].a]
		if r.RuntimeIncrease < 0 {
			r.RuntimeIncrease = 0
		}
		rows[i] = r.Fig5Row
	})
	return rows
}

type fig5Result struct {
	Fig5Row
	runtime float64
}

func runFig5One(s Scale, a cluster.Approach, migrations int) fig5Result {
	set := NewSetup(s, 0)
	ranks := set.CM1.Procs
	maxMig := Fig5Migrations(s)[len(Fig5Migrations(s))-1]
	set.Cluster.Nodes = ranks + maxMig

	sc := scenario.New(scenario.WithConfig(set.Cluster),
		scenario.WithCM1(set.CM1), scenario.WithHorizon(1e7))
	for i := 0; i < ranks; i++ {
		sc.AddVM(scenario.VMSpec{Name: fmt.Sprintf("rank%02d", i), Node: i, Approach: a})
	}
	// Successive migrations: source k moves after (k+1) gaps.
	for k := 0; k < migrations; k++ {
		sc.MigrateAt(fmt.Sprintf("rank%02d", k), ranks+k, set.Gap*float64(k+1))
	}
	r, err := sc.Run()
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 %s m=%d: %v", a, migrations, err))
	}

	res := fig5Result{Fig5Row: Fig5Row{Approach: a, Migrations: migrations}}
	for k := 0; k < migrations; k++ {
		if !r.VMs[k].Migrated {
			panic(fmt.Sprintf("experiments: fig5 migration %d incomplete for %s", k, a))
		}
		res.CumulMigrationTime += r.VMs[k].MigrationTime
	}
	res.runtime = r.CM1.Runtime
	if r.CM1.Intervals != set.CM1.Intervals {
		panic("experiments: CM1 did not finish")
	}
	// Fig. 5(b) excludes application communication: MigrationTraffic never
	// counts flow.TagApp, which is exactly the paper's subtraction.
	res.TrafficGB = metrics.GB(r.MigrationTraffic(a))
	return res
}

// Fig5Tables renders the three panels.
func Fig5Tables(s Scale, rows []Fig5Row) []*metrics.Table {
	migs := Fig5Migrations(s)
	head := make([]string, 0, len(migs)+1)
	head = append(head, "approach")
	for _, m := range migs {
		head = append(head, fmt.Sprintf("m=%d", m))
	}
	ta := metrics.NewTable("Figure 5(a): cumulated migration time (s, lower is better)", head...)
	tbt := metrics.NewTable("Figure 5(b): network traffic excluding CM1 communication (GB, lower is better)", head...)
	tc := metrics.NewTable("Figure 5(c): increase in app execution time (s, lower is better)", head...)
	byKey := map[string]Fig5Row{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.Approach, r.Migrations)] = r
	}
	for _, a := range cluster.Approaches() {
		ra := []any{string(a)}
		rb := []any{string(a)}
		rc := []any{string(a)}
		for _, m := range migs {
			r := byKey[fmt.Sprintf("%s/%d", a, m)]
			ra = append(ra, r.CumulMigrationTime)
			rb = append(rb, r.TrafficGB)
			rc = append(rc, r.RuntimeIncrease)
		}
		ta.AddRow(ra...)
		tbt.AddRow(rb...)
		tc.AddRow(rc...)
	}
	return []*metrics.Table{ta, tbt, tc}
}

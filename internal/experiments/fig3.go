package experiments

import (
	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/scenario"
)

// Fig3Row is one bar group of Figures 3(a)-(c): one approach under one
// benchmark.
type Fig3Row struct {
	Approach cluster.Approach `json:"approach"`
	Bench    string           `json:"bench"` // "IOR" or "AsyncWR"

	MigrationTime float64 `json:"migration_s"` // Fig. 3(a), seconds
	TrafficMB     float64 `json:"traffic_mb"`  // Fig. 3(b)

	// Fig. 3(c): average achieved throughput normalized to the maximal
	// no-migration values (1 GB/s read, 266 MB/s write, 6 MB/s AsyncWR).
	NormReadPct  float64 `json:"norm_read_pct"` // IOR only
	NormWritePct float64 `json:"norm_write_pct"`
}

// Fig3Benches lists the benchmarks of Section 5.3.
var Fig3Benches = []string{"IOR", "AsyncWR"}

// RunFig3 reproduces Figure 3: a single VM (4 GB RAM, 4 GB image) runs the
// benchmark, and a live migration is initiated after the warm-up delay.
// Cells are independent runs and fan out over the SetParallel budget; rows
// land by cell index, so the row order never depends on scheduling.
func RunFig3(s Scale) []Fig3Row {
	type cell struct {
		bench string
		a     cluster.Approach
	}
	var cells []cell
	for _, bench := range Fig3Benches {
		for _, a := range cluster.Approaches() {
			cells = append(cells, cell{bench, a})
		}
	}
	rows := make([]Fig3Row, len(cells))
	scenario.ForEach(len(cells), ParallelWorkers(), func(i int) {
		rows[i] = runFig3One(s, cells[i].a, cells[i].bench)
	})
	return rows
}

// RunFig3One runs a single (approach, benchmark) cell of Figure 3.
func RunFig3One(s Scale, a cluster.Approach, bench string) Fig3Row {
	return runFig3One(s, a, bench)
}

func runFig3One(s Scale, a cluster.Approach, bench string) Fig3Row {
	set := NewSetup(s, 10)
	var wl scenario.WorkloadSpec
	switch bench {
	case "IOR":
		wl = scenario.IOR(&set.IOR)
	case "AsyncWR":
		wl = scenario.AsyncWR(&set.AsyncWR, 0)
	default:
		panic("experiments: unknown benchmark " + bench)
	}
	sc := scenario.New(scenario.WithConfig(set.Cluster)).
		AddVM(scenario.VMSpec{Name: "vm0", Node: 0, Approach: a, Workload: wl}).
		MigrateAt("vm0", 1, set.Warmup)
	res, err := sc.Run()
	if err != nil {
		panic("experiments: fig3 " + string(a) + "/" + bench + ": " + err.Error())
	}
	vm := res.VMs[0]
	if !vm.Migrated {
		panic("experiments: fig3 migration did not complete for " + string(a))
	}
	row := Fig3Row{
		Approach:      a,
		Bench:         bench,
		MigrationTime: vm.MigrationTime,
		TrafficMB:     metrics.MB(res.MigrationTraffic(a)),
	}
	g := set.Cluster.Guest
	switch bench {
	case "IOR":
		row.NormReadPct = metrics.Pct(metrics.Ratio(vm.Workload.ReadBW(), g.CacheReadBandwidth))
		row.NormWritePct = metrics.Pct(metrics.Ratio(vm.Workload.WriteBW(), g.CacheWriteBandwidth))
	case "AsyncWR":
		nominal := float64(set.AsyncWR.DataPerIter) / set.AsyncWR.ComputeTime
		row.NormWritePct = metrics.Pct(metrics.Ratio(vm.Workload.WriteBW(), nominal))
	}
	return row
}

// Fig3Tables renders the three panels as text tables.
func Fig3Tables(rows []Fig3Row) []*metrics.Table {
	ta := metrics.NewTable("Figure 3(a): migration time (s, lower is better)",
		"approach", "IOR", "AsyncWR")
	tbt := metrics.NewTable("Figure 3(b): total network traffic (MB, lower is better)",
		"approach", "IOR", "AsyncWR")
	tc := metrics.NewTable("Figure 3(c): normalized avg throughput (% of max, higher is better)",
		"approach", "IOR-Read", "IOR-Write", "AsyncWR")
	byKey := map[string]Fig3Row{}
	for _, r := range rows {
		byKey[string(r.Approach)+"/"+r.Bench] = r
	}
	for _, a := range cluster.Approaches() {
		i := byKey[string(a)+"/IOR"]
		w := byKey[string(a)+"/AsyncWR"]
		ta.AddRow(string(a), i.MigrationTime, w.MigrationTime)
		tbt.AddRow(string(a), i.TrafficMB, w.TrafficMB)
		tc.AddRow(string(a), i.NormReadPct, i.NormWritePct, w.NormWritePct)
	}
	return []*metrics.Table{ta, tbt, tc}
}

package experiments

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/scenario"
)

// AblationRow reports one configuration of a design-choice sweep, measured
// on the Figure 3 IOR scenario with our approach.
type AblationRow struct {
	Label         string  `json:"label"`
	MigrationTime float64 `json:"migration_s"`
	TrafficMB     float64 `json:"traffic_mb"`
	PushedChunks  int     `json:"pushed_chunks"`
	PulledChunks  int     `json:"pulled_chunks"`
	SkippedHot    int     `json:"skipped_hot"`
	DedupHits     int     `json:"dedup_hits"`
}

// ablationScenario is the IOR migration scenario every ablation measures:
// one our-approach VM on the 10-node setup, migrated to node 1 after the
// warm-up. mutate changes the setup first (its Cluster.Manager holds every
// manager tunable).
func ablationScenario(s Scale, mutate func(*Setup)) *scenario.Scenario {
	set := NewSetup(s, 10)
	mutate(&set)
	return scenario.New(scenario.WithConfig(set.Cluster)).
		AddVM(scenario.VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach,
			Workload: scenario.IOR(&set.IOR)}).
		MigrateAt("vm0", 1, set.Warmup)
}

// runAblation runs the ablation scenario with a modified setup.
func runAblation(s Scale, label string, mutate func(*Setup)) AblationRow {
	res, err := ablationScenario(s, mutate).Run()
	if err != nil {
		panic("experiments: ablation failed: " + label + ": " + err.Error())
	}
	return ablationRow(label, res)
}

// ablationRow reads one ablation row off a finished ablation scenario.
func ablationRow(label string, res *scenario.Result) AblationRow {
	vm := res.VMs[0]
	if !vm.Migrated {
		panic("experiments: ablation migration incomplete: " + label)
	}
	st := vm.Core
	return AblationRow{
		Label:         label,
		MigrationTime: vm.MigrationTime,
		TrafficMB:     metrics.MB(res.MigrationTraffic(cluster.OurApproach)),
		PushedChunks:  st.PushedChunks,
		PulledChunks:  st.PulledChunks + st.OnDemandPulls,
		SkippedHot:    st.SkippedHot,
		DedupHits:     st.DedupHits,
	}
}

// AblateThreshold sweeps the write-count threshold of Algorithm 1.
// Threshold 1 pushes each chunk at most once; a huge threshold never stops
// pushing hot chunks (pure-precopy-like push behaviour).
func AblateThreshold(s Scale) []AblationRow {
	rows := make([]AblationRow, 0, 5)
	for _, th := range []uint32{1, 2, 3, 5, 1 << 30} {
		label := fmt.Sprintf("threshold=%d", th)
		if th == 1<<30 {
			label = "threshold=inf"
		}
		th := th
		rows = append(rows, runAblation(s, label, func(set *Setup) { set.Cluster.Manager.Threshold = th }))
	}
	return rows
}

// AblatePullPriority compares write-count-prioritized prefetch against plain
// ascending-order pull.
func AblatePullPriority(s Scale) []AblationRow {
	return []AblationRow{
		runAblation(s, "priority=write-count", func(set *Setup) { set.Cluster.Manager.PullPriority = true }),
		runAblation(s, "priority=fifo", func(set *Setup) { set.Cluster.Manager.PullPriority = false }),
	}
}

// AblateBasePrefetch compares hint-driven base-image prefetch on and off.
func AblateBasePrefetch(s Scale) []AblationRow {
	return []AblationRow{
		runAblation(s, "base-prefetch=on", func(set *Setup) { set.Cluster.Manager.BasePrefetch = true }),
		runAblation(s, "base-prefetch=off", func(set *Setup) { set.Cluster.Manager.BasePrefetch = false }),
	}
}

// AblateStripeSize sweeps the repository stripe size (Section 5.2.1 picks
// 256 KB as the fragmentation/contention sweet spot).
func AblateStripeSize(s Scale) []AblationRow {
	rows := make([]AblationRow, 0, 3)
	for _, ss := range []int64{64 * params.KB, 256 * params.KB, 1 * params.MB} {
		ss := ss
		rows = append(rows, runAblation(s, fmt.Sprintf("stripe=%dKB", ss/params.KB),
			func(set *Setup) {
				set.Cluster.Repo.StripeSize = ss
				// Chunk size tracks stripe size: the manager requires them
				// to nest.
				set.Cluster.Testbed.ChunkSize = ss
			}))
	}
	return rows
}

// AblateDedup compares content-deduplicated transfers (paper §6 future
// work) against plain transfers.
func AblateDedup(s Scale) []AblationRow {
	return []AblationRow{
		runAblation(s, "dedup=off", func(set *Setup) { set.Cluster.Manager.Dedup = false }),
		runAblation(s, "dedup=on", func(set *Setup) { set.Cluster.Manager.Dedup = true }),
	}
}

// AblateCompression compares online compression ratios (paper §6 / [24]).
func AblateCompression(s Scale) []AblationRow {
	rows := make([]AblationRow, 0, 3)
	for _, ratio := range []float64{0, 0.6, 0.3} {
		ratio := ratio
		label := "compression=off"
		if ratio > 0 {
			label = fmt.Sprintf("compression=%.0f%%", ratio*100)
		}
		rows = append(rows, runAblation(s, label, func(set *Setup) {
			set.Cluster.Manager.CompressionRatio = ratio
			set.Cluster.Manager.CompressBW = 400 * params.MB
		}))
	}
	return rows
}

// AblationTable renders ablation rows.
func AblationTable(title string, rows []AblationRow) *metrics.Table {
	t := metrics.NewTable(title, "config", "mig time (s)", "traffic (MB)", "pushed", "pulled", "hot", "dedup hits")
	for _, r := range rows {
		t.AddRow(r.Label, r.MigrationTime, r.TrafficMB, r.PushedChunks, r.PulledChunks, r.SkippedHot, r.DedupHits)
	}
	return t
}

package experiments

import (
	"fmt"
	"strings"
)

// GoldenReport renders every experiment artifact at full float64 precision
// (hex float formatting, so every bit of the mantissa is visible). It is the
// determinism contract of the simulator: any change to event ordering, rate
// allocation, or byte accounting shows up as a diff against the captured
// testdata, even when the human-readable %.2f tables would round it away.
func GoldenReport(s Scale) string {
	var b strings.Builder
	fmt.Fprintf(&b, "golden report scale=%s\n", s)

	b.WriteString("== table1 ==\n")
	for _, r := range RunTable1() {
		fmt.Fprintf(&b, "%s | %s\n", r.Approach, r.Strategy)
	}

	b.WriteString("== fig3 ==\n")
	for _, r := range RunFig3(s) {
		fmt.Fprintf(&b, "%s/%s mig=%x traffic=%x read=%x write=%x\n",
			r.Approach, r.Bench, r.MigrationTime, r.TrafficMB, r.NormReadPct, r.NormWritePct)
	}

	b.WriteString("== fig4 ==\n")
	for _, r := range RunFig4(s) {
		fmt.Fprintf(&b, "%s/n=%d mig=%x traffic=%x degr=%x\n",
			r.Approach, r.Concurrency, r.AvgMigrationTime, r.TrafficGB, r.DegradationPct)
	}

	b.WriteString("== fig5 ==\n")
	for _, r := range RunFig5(s) {
		fmt.Fprintf(&b, "%s/m=%d mig=%x traffic=%x slowdown=%x\n",
			r.Approach, r.Migrations, r.CumulMigrationTime, r.TrafficGB, r.RuntimeIncrease)
	}

	b.WriteString("== campaign ==\n")
	for _, r := range RunCampaign(s) {
		fmt.Fprintf(&b, "%s/%s vms=%d makespan=%x avgmig=%x downtime=%x traffic=%x peak=%d\n",
			r.Approach, r.Policy, r.VMs, r.Makespan, r.AvgMigrationTime,
			r.TotalDowntimeMS, r.TrafficGB, r.PeakConcurrent)
	}
	return b.String()
}

// goldenAblations renders every row of every design ablation (the sweeps
// cmd/ablate runs with -which all) at small and paper scale in hex floats.
// These are the only recorded runs with a repository stripe other than
// 256 KB or with the base-image prefetch off.
func goldenAblations() string {
	sweeps := []struct {
		name string
		run  func(Scale) []AblationRow
	}{
		{"threshold", AblateThreshold},
		{"priority", AblatePullPriority},
		{"stripe", AblateStripeSize},
		{"prefetch", AblateBasePrefetch},
		{"dedup", AblateDedup},
		{"compression", AblateCompression},
	}
	var b strings.Builder
	for _, s := range []Scale{ScaleSmall, ScalePaper} {
		for _, sw := range sweeps {
			fmt.Fprintf(&b, "== %s scale=%s ==\n", sw.name, s)
			for _, r := range sw.run(s) {
				fmt.Fprintf(&b, "%s mig=%x traffic=%x pushed=%d pulled=%d hot=%d dedup=%d\n",
					r.Label, r.MigrationTime, r.TrafficMB, r.PushedChunks, r.PulledChunks,
					r.SkippedHot, r.DedupHits)
			}
		}
	}
	return b.String()
}

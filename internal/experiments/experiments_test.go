package experiments

import (
	"reflect"
	"testing"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/scenario"
)

// fig3At finds one row.
func fig3At(rows []Fig3Row, a cluster.Approach, bench string) Fig3Row {
	for _, r := range rows {
		if r.Approach == a && r.Bench == bench {
			return r
		}
	}
	panic("row not found")
}

// TestFig3SmallShape asserts the paper's robust qualitative claims at small
// scale: pvfs migrates fastest (memory only) but costs by far the most
// traffic under IOR; precopy is the slowest migration; our approach beats
// precopy on both time and traffic.
func TestFig3SmallShape(t *testing.T) {
	rows := RunFig3(ScaleSmall)
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 (5 approaches x 2 benches)", len(rows))
	}
	our := fig3At(rows, cluster.OurApproach, "IOR")
	pre := fig3At(rows, cluster.Precopy, "IOR")
	pvfs := fig3At(rows, cluster.PVFSShared, "IOR")
	mir := fig3At(rows, cluster.Mirror, "IOR")

	if pvfs.MigrationTime >= our.MigrationTime {
		t.Errorf("pvfs migration (%v) should be fastest (vs our %v)", pvfs.MigrationTime, our.MigrationTime)
	}
	if pre.MigrationTime <= our.MigrationTime {
		t.Errorf("precopy migration (%v) should exceed our approach (%v)", pre.MigrationTime, our.MigrationTime)
	}
	if pvfs.TrafficMB <= 2*our.TrafficMB {
		t.Errorf("pvfs traffic (%v MB) should dwarf our approach (%v MB)", pvfs.TrafficMB, our.TrafficMB)
	}
	if pre.TrafficMB <= our.TrafficMB {
		t.Errorf("precopy traffic (%v) should exceed our approach (%v): repeated retransfers", pre.TrafficMB, our.TrafficMB)
	}
	// Fig 3(c): pvfs I/O throughput far below the local-storage approaches.
	if pvfs.NormReadPct >= our.NormReadPct/2 {
		t.Errorf("pvfs read throughput (%v%%) should be far below ours (%v%%)", pvfs.NormReadPct, our.NormReadPct)
	}
	if mir.NormWritePct > our.NormWritePct+20 {
		t.Errorf("mirror write throughput (%v%%) implausibly above ours (%v%%)", mir.NormWritePct, our.NormWritePct)
	}
	// All migrations completed with plausible positive values.
	for _, r := range rows {
		if r.MigrationTime <= 0 || r.TrafficMB <= 0 {
			t.Errorf("%s/%s: non-positive measurements %+v", r.Approach, r.Bench, r)
		}
	}
}

func TestFig3Tables(t *testing.T) {
	rows := RunFig3(ScaleSmall)
	tables := Fig3Tables(rows)
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want 3 panels", len(tables))
	}
	for _, tab := range tables {
		s := tab.String()
		if len(s) == 0 {
			t.Fatal("empty table")
		}
	}
}

func TestFig4SmallShape(t *testing.T) {
	rows := RunFig4(ScaleSmall)
	want := len(cluster.Approaches()) * len(Fig4Concurrencies(ScaleSmall))
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	byKey := map[string]Fig4Row{}
	for _, r := range rows {
		byKey[string(r.Approach)+string(rune('0'+r.Concurrency))] = r
	}
	maxC := Fig4Concurrencies(ScaleSmall)[len(Fig4Concurrencies(ScaleSmall))-1]
	for _, a := range cluster.Approaches() {
		for _, k := range Fig4Concurrencies(ScaleSmall) {
			r := byKey[string(a)+string(rune('0'+k))]
			if r.AvgMigrationTime <= 0 {
				t.Errorf("%s n=%d: no migration time", a, k)
			}
			if r.TrafficGB <= 0 {
				t.Errorf("%s n=%d: no traffic", a, k)
			}
			if r.DegradationPct < 0 || r.DegradationPct > 60 {
				t.Errorf("%s n=%d: degradation %v%% out of range", a, k, r.DegradationPct)
			}
		}
		// Traffic grows with concurrency for migrating approaches.
		lo := byKey[string(a)+string(rune('0'+1))]
		hi := byKey[string(a)+string(rune('0'+maxC))]
		if a != cluster.PVFSShared && hi.TrafficGB <= lo.TrafficGB {
			t.Errorf("%s: traffic did not grow with concurrency (%v -> %v)", a, lo.TrafficGB, hi.TrafficGB)
		}
	}
	// postcopy's long pull phases steal CPU the longest: its degradation
	// must be at least our approach's (the paper's 3-4x gap in direction).
	// No ordering is asserted for pvfs-shared: EXPERIMENTS.md (Figure 4)
	// measures its degradation lowest of all, because its potential is
	// already depressed before any migration starts (the paper's
	// normalization).
	our := byKey[string(cluster.OurApproach)+string(rune('0'+maxC))]
	post := byKey[string(cluster.Postcopy)+string(rune('0'+maxC))]
	if post.DegradationPct < our.DegradationPct {
		t.Errorf("postcopy degradation (%v%%) below our approach (%v%%)", post.DegradationPct, our.DegradationPct)
	}
	if our.DegradationPct <= 0 {
		t.Error("our approach shows zero degradation; CPU steal and downtime should cost something")
	}
}

func TestFig5SmallShape(t *testing.T) {
	rows := RunFig5(ScaleSmall)
	want := len(cluster.Approaches()) * len(Fig5Migrations(ScaleSmall))
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	get := func(a cluster.Approach, m int) Fig5Row {
		for _, r := range rows {
			if r.Approach == a && r.Migrations == m {
				return r
			}
		}
		panic("row missing")
	}
	migs := Fig5Migrations(ScaleSmall)
	last := migs[len(migs)-1]
	for _, a := range cluster.Approaches() {
		// Cumulative migration time grows with the number of migrations.
		prev := 0.0
		for _, m := range migs {
			r := get(a, m)
			if r.CumulMigrationTime <= prev {
				t.Errorf("%s m=%d: cumulative time %v did not grow (prev %v)", a, m, r.CumulMigrationTime, prev)
			}
			prev = r.CumulMigrationTime
		}
	}
	// pvfs traffic dwarfs local-storage approaches (Fig. 5b's huge gap).
	if get(cluster.PVFSShared, last).TrafficGB < 2*get(cluster.OurApproach, last).TrafficGB {
		t.Errorf("pvfs traffic should dwarf local approaches")
	}
}

func TestTable1(t *testing.T) {
	rows := RunTable1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(rows))
	}
}

func TestAblateThresholdShape(t *testing.T) {
	rows := AblateThreshold(ScaleSmall)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// An infinite threshold never skips hot chunks; threshold 1 skips the
	// most (every rewritten chunk).
	inf := rows[len(rows)-1]
	one := rows[0]
	if inf.SkippedHot != 0 {
		t.Errorf("threshold=inf skipped %d chunks, want 0", inf.SkippedHot)
	}
	if one.SkippedHot < inf.SkippedHot {
		t.Errorf("threshold=1 should skip at least as many hot chunks")
	}
	for _, r := range rows {
		if !ratePositive(r) {
			t.Errorf("%s: bad row %+v", r.Label, r)
		}
	}
}

func TestAblateDedupReducesTraffic(t *testing.T) {
	rows := AblateDedup(ScaleSmall)
	off, on := rows[0], rows[1]
	if on.DedupHits == 0 {
		t.Fatal("dedup produced no hits")
	}
	if on.TrafficMB >= off.TrafficMB {
		t.Errorf("dedup traffic %v MB >= plain %v MB", on.TrafficMB, off.TrafficMB)
	}
}

// TestAblationBaselineIsDefaultRun pins params.Manager as the manager's only
// configuration: an ablation that changes nothing runs exactly the scenario
// built from the unmodified default setup, down to the resolved cluster
// configuration and every VM and migration field.
func TestAblationBaselineIsDefaultRun(t *testing.T) {
	got, err := ablationScenario(ScaleSmall, func(*Setup) {}).Run()
	if err != nil {
		t.Fatal(err)
	}
	set := NewSetup(ScaleSmall, 10)
	want, err := scenario.New(scenario.WithScale(ScaleSmall), scenario.WithNodes(10)).
		AddVM(scenario.VMSpec{Name: "vm0", Node: 0, Approach: cluster.OurApproach,
			Workload: scenario.IOR(&set.IOR)}).
		MigrateAt("vm0", 1, set.Warmup).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("baseline ablation run differs from the default run:\n got %+v\nwant %+v", got, want)
	}
	row := runAblation(ScaleSmall, "baseline", func(*Setup) {})
	if wantRow := ablationRow("baseline", want); row != wantRow {
		t.Fatalf("baseline ablation row = %+v, want %+v", row, wantRow)
	}
}

func TestAblateCompressionReducesTraffic(t *testing.T) {
	rows := AblateCompression(ScaleSmall)
	off, mid := rows[0], rows[1]
	if mid.TrafficMB >= off.TrafficMB {
		t.Errorf("compression traffic %v MB >= plain %v MB", mid.TrafficMB, off.TrafficMB)
	}
}

func TestAblatePullPriorityRuns(t *testing.T) {
	rows := AblatePullPriority(ScaleSmall)
	for _, r := range rows {
		if !ratePositive(r) {
			t.Errorf("%s: bad row %+v", r.Label, r)
		}
	}
}

func TestAblateBasePrefetchRuns(t *testing.T) {
	rows := AblateBasePrefetch(ScaleSmall)
	for _, r := range rows {
		if !ratePositive(r) {
			t.Errorf("%s: bad row %+v", r.Label, r)
		}
	}
}

func TestAblateStripeSizeRuns(t *testing.T) {
	rows := AblateStripeSize(ScaleSmall)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !ratePositive(r) {
			t.Errorf("%s: bad row %+v", r.Label, r)
		}
	}
}

func ratePositive(r AblationRow) bool {
	return r.MigrationTime > 0 && r.TrafficMB > 0
}

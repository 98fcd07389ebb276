package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/experiments"
	"github.com/hybridmig/hybridmig/internal/metrics"
	"github.com/hybridmig/hybridmig/internal/scenario"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// test's benchmark run re-executes it as a pass.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// specFile is BENCHMARK.json as far as the tests read it.
type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) specFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeRun(t *testing.T, name string, traced bool, refs map[string]string) *result {
	t.Helper()
	o := benchOpts{
		workload: name, seed: 1, seconds: 1, traced: traced, smoke: true, refs: refs,
		spansPath: filepath.Join(t.TempDir(), "spans.json"),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out bytes.Buffer
	res, err := runBenchmark(ctx, o, &out)
	if err != nil {
		t.Fatalf("%s traced=%t: %v\n%s", name, traced, err, out.String())
	}
	return res
}

// TestSmokeEmitsDeclaredNames runs every workload at smoke size in both
// modes and checks that the metric names it emits are exactly the ones
// BENCHMARK.json declares, with the same units, and that every run is
// correct.
func TestSmokeEmitsDeclaredNames(t *testing.T) {
	spec := loadSpec(t)
	refs, err := parseReferences(referenceData)
	if err != nil {
		t.Fatal(err)
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	var specWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
		if !validName.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
	}
	if fmt.Sprint(specWorkloads) != fmt.Sprint(workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", specWorkloads, workloadNames())
	}
	for traced, names := range declared {
		for name := range names {
			if !validName.MatchString(name) {
				t.Errorf("metric name %q", name)
			}
		}
		for _, w := range workloads {
			res := smokeRun(t, w.name, traced, refs)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, v := range res.Metrics {
				unit, ok := names[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t emits undeclared metric %s", w.name, traced, name)
				case unit != v.Unit:
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w.name, name, v.Unit, unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, name, v.Value)
				}
			}
			for name := range names {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%t does not emit declared metric %s", w.name, traced, name)
				}
			}
		}
	}
}

// TestPerturbedReferenceFails pins that the reference check has teeth: one
// wrong digest must show up as failed runs.
func TestPerturbedReferenceFails(t *testing.T) {
	refs, err := parseReferences(referenceData)
	if err != nil {
		t.Fatal(err)
	}
	key := referenceKey("fig5-cm1", true, "our-approach/m=3")
	if _, ok := refs[key]; !ok {
		t.Fatalf("no reference for %q", key)
	}
	refs[key] = "0000000000000000"
	res := smokeRun(t, "fig5-cm1", false, refs)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("perturbed reference: correct=%t failed=%d, want a failure", res.Correct, res.Failed)
	}
}

// runCell runs one benchmark cell and applies its completeness check.
func runCell(t *testing.T, c cell) *scenario.Result {
	t.Helper()
	res, err := c.sc.Run()
	if err == nil {
		err = c.check(res)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res
}

// TestCampaignCellsMatchExperiment pins that seed 1 runs exactly the 16
// cells of the campaign experiment driver.
func TestCampaignCellsMatchExperiment(t *testing.T) {
	cells := campaignCells(newSetupOpts(1, false))
	pols := experiments.CampaignPolicies(scenario.ScaleSmall, experiments.CampaignVMs(scenario.ScaleSmall))
	if len(cells) != len(localStrategies)*len(pols) {
		t.Fatalf("%d cells, want %d", len(cells), len(localStrategies)*len(pols))
	}
	i := 0
	for _, a := range localStrategies {
		for _, pol := range pols {
			got := runCell(t, cells[i]).Campaigns[0]
			want := experiments.RunCampaignOne(scenario.ScaleSmall, a, pol)
			if got.Makespan() != want.Makespan() || got.TransferredBytes != want.TransferredBytes ||
				got.TotalDowntime != want.TotalDowntime || got.PeakConcurrent != want.PeakConcurrent {
				t.Errorf("%s: benchmark cell %+v, experiment cell %+v", cells[i].name, got, want)
			}
			i++
		}
	}
}

// TestFig4CellMatchesExperiment pins the fig4-pvfs cell builder against the
// Fig. 4 driver at smoke size, where the two build the same scenario (the
// full-size cells differ only in the shortened warm-up and window).
func TestFig4CellMatchesExperiment(t *testing.T) {
	c := fig4Cells(newSetupOpts(1, true))[0]
	res := runCell(t, c)
	const k = 3
	var sum float64
	for i := 0; i < k; i++ {
		sum += res.VMs[i].MigrationTime
	}
	got := experiments.Fig4Row{Approach: cluster.PVFSShared, Concurrency: k,
		AvgMigrationTime: sum / k, TrafficGB: metrics.GB(res.MigrationTraffic(cluster.PVFSShared))}
	for _, want := range experiments.RunFig4(scenario.ScaleSmall) {
		if want.Approach == got.Approach && want.Concurrency == k {
			if want.AvgMigrationTime != got.AvgMigrationTime || want.TrafficGB != got.TrafficGB {
				t.Fatalf("%s: benchmark cell %+v, experiment row %+v", c.name, got, want)
			}
			return
		}
	}
	t.Fatalf("Fig. 4 driver has no %s k=%d row", got.Approach, k)
}

// TestFig5CellMatchesExperiment pins the fig5-cm1 cell builder against the
// Fig. 5 driver at smoke size (full size runs the same code at paper scale
// and m=7).
func TestFig5CellMatchesExperiment(t *testing.T) {
	c := fig5Cells(newSetupOpts(1, true))[0]
	res := runCell(t, c)
	const m = 3
	a := localStrategies[0]
	got := experiments.Fig5Row{Approach: a, Migrations: m, TrafficGB: metrics.GB(res.MigrationTraffic(a))}
	for i := 0; i < m; i++ {
		got.CumulMigrationTime += res.VMs[i].MigrationTime
	}
	for _, want := range experiments.RunFig5(scenario.ScaleSmall) {
		if want.Approach == a && want.Migrations == m {
			if want.CumulMigrationTime != got.CumulMigrationTime || want.TrafficGB != got.TrafficGB {
				t.Fatalf("%s: benchmark cell %+v, experiment row %+v", c.name, got, want)
			}
			return
		}
	}
	t.Fatalf("Fig. 5 driver has no %s m=%d row", a, m)
}

func TestLayerOf(t *testing.T) {
	const mod = "github.com/hybridmig/hybridmig"
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{mod + "/internal/flow.(*Net).fill", mod + "/internal/flow.(*Net).Start"}, "flow"},
		{[]string{mod + "/internal/strategy/adaptive.(*ctl).retune.func1"}, "strategy"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", mod + "/internal/sim.(*Proc).park"}, "runtime.sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", mod + "/internal/chunk.NewSet"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, "runtime.gc"},
		{[]string{"runtime.memmove", mod + "/internal/vm.(*Memory).Dirty"}, "runtime.other"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.lock2"}, "runtime.sched"},
		{[]string{"encoding/json.(*decodeState).object", mod + "/internal/service.DecodeSpec"}, "stdlib"},
		{[]string{"slices.SortFunc[go.shape.[]*github.com/x/y.T]"}, "stdlib"},
		{[]string{"main.digestResult"}, "bench"},
		{[]string{mod + "/benchmark.digestResult"}, "bench"}, // as named in the test binary
		{nil, "runtime.other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestParseCPUProfile profiles a busy loop in this package and checks the
// decoder finds its samples and charges them to the benchmark's own layer.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	sink := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			sink += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = sink
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	layers := foldByLayer(p)
	if len(p.samples) == 0 || layers["bench"] <= 0 {
		t.Fatalf("%d samples, layers %v", len(p.samples), layers)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(xs, n=4) gives [3.9375, 4.075, 4.45] here.
	xs := []float64{4.1, 3.9, 4.4, 4.0, 5.2, 3.7, 4.3, 4.05, 4.6, 3.95}
	if got, want := spread(xs), (4.45-3.9375)/4.075; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{2, 1, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 3 = %v, want 1", got)
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"wall_s","better":"lower","bound":0.1},
		{"name":"ops_per_s","better":"higher","bound":0.1},
		{"name":"run_p50_ms","better":"lower","bound":0.1}]}`), 0o644)
	write := func(name string, wall, rate []float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := range wall {
			// One run per pass: run_p50_ms repeats wall_s and must not
			// count as a second regression.
			l := reportLine{Workload: "w", Seed: uint64(i + 1), RunsPerPass: 1, Result: result{Attempted: 10, Metrics: map[string]metricValue{
				"wall_s": {wall[i], "s"}, "ops_per_s": {rate[i], "1/s"}, "run_p50_ms": {1000 * wall[i], "ms"},
			}}}
			if i == 0 {
				l.Result.Failed = failed
			}
			if err := appendReport(path, l); err != nil {
				t.Fatal(err)
			}
		}
		extra := reportLine{Workload: "gone", Result: result{Attempted: 1, Metrics: map[string]metricValue{"wall_s": {1, "s"}}}}
		if name == "old.jsonl" {
			appendReport(path, extra)
		}
		return path
	}
	steady := []float64{1, 1.01, 0.99, 1, 1.005}
	old := write("old.jsonl", steady, steady, 0)
	for _, tc := range []struct {
		name       string
		wall, rate []float64
		failed     int
		code       int
		contains   string
	}{
		{"same", steady, steady, 0, 0, "no regressions"},
		{"slower", []float64{1.2, 1.21, 1.19, 1.2, 1.2}, steady, 0, 1, "REGRESSION"},
		{"lower-rate", steady, []float64{0.8, 0.81, 0.79, 0.8, 0.8}, 0, 1, "REGRESSION"},
		{"faster", []float64{0.8, 0.81, 0.79, 0.8, 0.8}, steady, 0, 0, "improved"},
		{"noisy", []float64{1.2, 0.7, 1.6, 1.0, 1.4}, steady, 0, 0, "unresolved"},
		{"failing", steady, steady, 1, 1, "failed"},
	} {
		var out bytes.Buffer
		code := compareReports(&out, spec, old, write(tc.name+".jsonl", tc.wall, tc.rate, tc.failed))
		if code != tc.code || !bytes.Contains(out.Bytes(), []byte(tc.contains)) {
			t.Errorf("%s: exit %d, want %d; output:\n%s", tc.name, code, tc.code, out.String())
		}
		if !bytes.Contains(out.Bytes(), []byte("skipped: one run per pass")) {
			t.Errorf("%s: run_p50_ms of a one-run workload not skipped:\n%s", tc.name, out.String())
		}
		if n := bytes.Count(out.Bytes(), []byte("REGRESSION")); n > 1 {
			t.Errorf("%s: %d regression lines, want at most 1:\n%s", tc.name, n, out.String())
		}
		if !bytes.Contains(out.Bytes(), []byte("- gone series dropped")) {
			t.Errorf("%s: dropped workload not listed:\n%s", tc.name, out.String())
		}
	}
}

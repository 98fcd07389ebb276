// Command benchreport runs the repository's performance suite and emits a
// machine-readable BENCH.json: micro-benchmarks of the two hot layers (the
// internal/flow incremental allocator and the internal/sim event kernel)
// plus wall-clock measurements of the heavyweight experiment drivers. CI
// uploads the file as an artifact and EXPERIMENTS.md records the paper-scale
// trajectory, so future PRs can detect perf regressions by diffing reports.
//
// Usage:
//
//	benchreport [-scale small|paper] [-skip-experiments] [-parallel N] [-o BENCH.json]
//	benchreport -compare old.json new.json [-threshold 0.30]
//
// With -parallel != 0 the experiment drivers are timed twice — once serial,
// once with N concurrent cells (-1 = GOMAXPROCS) — and a 10,000-VM campaign
// smoke runs through the component-parallel scenario kernel, so BENCH.json
// records the serial-vs-parallel trajectory side by side.
//
// -compare turns two BENCH.json snapshots into a trajectory: a field-wise
// delta report over the micro and experiment series, exiting nonzero when any
// series regressed past the threshold (fractional; 0.30 = 30% slower) or when
// a zero-alloc series started allocating. -cpuprofile/-memprofile write pprof
// profiles of the measurement run for drill-down.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/hybridmig/hybridmig"
	"github.com/hybridmig/hybridmig/internal/benchscen"
	"github.com/hybridmig/hybridmig/internal/experiments"
)

// Micro is one micro-benchmark result.
type Micro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Experiment is one experiment driver wall-clock measurement.
type Experiment struct {
	Name        string  `json:"name"`
	Scale       string  `json:"scale"`
	WallSeconds float64 `json:"wall_seconds"`
}

// Report is the BENCH.json shape.
type Report struct {
	Schema      int          `json:"schema"`
	Go          string       `json:"go"`
	Micro       []Micro      `json:"micro"`
	Experiments []Experiment `json:"experiments,omitempty"`
}

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: small or paper")
	skipExp := flag.Bool("skip-experiments", false, "only run micro-benchmarks")
	parallel := flag.Int("parallel", -1, "workers for the parallel experiment legs (-1 = GOMAXPROCS, 0 = serial legs only)")
	out := flag.String("o", "BENCH.json", "output path")
	compare := flag.Bool("compare", false, "compare two BENCH.json files (old new) instead of measuring")
	threshold := flag.Float64("threshold", 0.30, "with -compare: fractional slowdown that counts as a regression")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the measurement run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchreport: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1), *threshold))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			}
		}()
	}

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.ScaleSmall
	case "paper":
		scale = experiments.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "benchreport: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	rep := Report{Schema: 1, Go: runtime.Version()}
	micro := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		m := Micro{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Micro = append(rep.Micro, m)
		fmt.Printf("%-36s %12.1f ns/op %8d allocs/op\n", m.Name, m.NsPerOp, m.AllocsPerOp)
	}

	// The scenario bodies are shared with the package benchmarks via
	// internal/benchscen, so this report measures exactly what
	// `go test -bench` measures.
	for _, n := range []int{10, 100, 1000} {
		n := n
		micro(fmt.Sprintf("flow/churn-disjoint-%d", n), func(b *testing.B) { benchscen.FlowChurn(b, n, false) })
	}
	for _, n := range []int{10, 100, 1000} {
		n := n
		micro(fmt.Sprintf("flow/churn-shared-%d", n), func(b *testing.B) { benchscen.FlowChurn(b, n, true) })
	}
	micro("sim/after-fire", benchscen.AfterFire)
	micro("sim/timer-churn", benchscen.TimerChurn)

	if !*skipExp {
		experiment := func(name string, run func()) {
			runtime.GC() // each leg starts from a settled heap
			start := time.Now()
			run()
			e := Experiment{Name: name, Scale: scale.String(), WallSeconds: time.Since(start).Seconds()}
			rep.Experiments = append(rep.Experiments, e)
			fmt.Printf("%-36s %12.1f s wall\n", name+"@"+e.Scale, e.WallSeconds)
		}
		experiment("fig4-concurrent-migrations", func() { experiments.RunFig4(scale) })
		experiment("fig5-storage-migrations", func() { experiments.RunFig5(scale) })
		experiment("campaign-all-policies", func() { experiments.RunCampaign(scale) })
		if *parallel != 0 {
			// Same drivers with concurrent cells; results are byte-identical,
			// only the wall clock moves (by the core count of this machine).
			experiments.SetParallel(*parallel)
			experiment("fig4-concurrent-migrations-parallel", func() { experiments.RunFig4(scale) })
			experiment("fig5-storage-migrations-parallel", func() { experiments.RunFig5(scale) })
			experiment("campaign-all-policies-parallel", func() { experiments.RunCampaign(scale) })
			experiments.SetParallel(0)
		}
		experiment("campaign-10k-vm-smoke", func() { tenKCampaignSmoke(*parallel) })
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// loadReport reads one BENCH.json snapshot.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports prints a field-wise delta between two BENCH.json snapshots
// and returns the process exit code: 0 when no series regressed past the
// threshold, 1 otherwise. Series present in only one file are reported but
// never count as regressions (the suite grows over time).
func compareReports(oldPath, newPath string, threshold float64) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		return 2
	}

	regressions := 0
	// delta reports one numeric field; worse-by-more-than-threshold flags it.
	delta := func(name, field string, old, new float64, unit string) {
		rel := 0.0
		if old > 0 {
			rel = (new - old) / old
		}
		mark := " "
		if old > 0 && rel > threshold {
			mark = "!"
			regressions++
		}
		fmt.Printf("%s %-38s %-10s %14.1f -> %14.1f %-6s %+7.1f%%\n",
			mark, name, field, old, new, unit, rel*100)
	}

	oldMicro := make(map[string]Micro, len(oldRep.Micro))
	for _, m := range oldRep.Micro {
		oldMicro[m.Name] = m
	}
	for _, m := range newRep.Micro {
		o, ok := oldMicro[m.Name]
		if !ok {
			fmt.Printf("+ %-38s new series: %.1f ns/op, %d allocs/op\n", m.Name, m.NsPerOp, m.AllocsPerOp)
			continue
		}
		delete(oldMicro, m.Name)
		delta(m.Name, "ns/op", o.NsPerOp, m.NsPerOp, "ns")
		if m.AllocsPerOp > o.AllocsPerOp {
			// Allocation regressions are exact, not thresholded: a pooled
			// path that starts allocating is a bug regardless of magnitude.
			fmt.Printf("! %-38s allocs/op  %14d -> %14d\n", m.Name, o.AllocsPerOp, m.AllocsPerOp)
			regressions++
		}
	}
	for name := range oldMicro {
		fmt.Printf("- %-38s series dropped\n", name)
	}

	oldExp := make(map[string]Experiment, len(oldRep.Experiments))
	for _, e := range oldRep.Experiments {
		oldExp[e.Name+"@"+e.Scale] = e
	}
	for _, e := range newRep.Experiments {
		key := e.Name + "@" + e.Scale
		o, ok := oldExp[key]
		if !ok {
			fmt.Printf("+ %-38s new series: %.1f s wall\n", key, e.WallSeconds)
			continue
		}
		delete(oldExp, key)
		delta(key, "wall", o.WallSeconds, e.WallSeconds, "s")
	}
	for key := range oldExp {
		fmt.Printf("- %-38s series dropped\n", key)
	}

	if regressions > 0 {
		fmt.Printf("benchreport: %d series regressed past %+.0f%%\n", regressions, threshold*100)
		return 1
	}
	fmt.Println("benchreport: no regressions")
	return 0
}

// tenKCampaignSmoke migrates 10,000 preseeded idle VMs across 5,000 disjoint
// node pairs in one staggered wave at paper fidelity — the ROADMAP scale
// target for policy studies. The switch fabric is widened past the planner's
// transparency bound so the scenario decomposes into 5,000 independent
// shards; workers selects the kernel (0 = serial fallback for a baseline).
func tenKCampaignSmoke(workers int) {
	const pairs = 5000
	nodes := 2 * pairs
	set := hybridmig.SetupFor(hybridmig.ScalePaper, nodes)
	set.Cluster.Testbed.FabricBandwidth = 2 * float64(nodes) * set.Cluster.Testbed.NICBandwidth
	opts := []hybridmig.Option{
		hybridmig.WithConfig(set.Cluster),
		hybridmig.WithPreseededImages(),
	}
	if workers != 0 {
		opts = append(opts, hybridmig.WithParallel(workers))
	}
	s := hybridmig.NewScenario(opts...)
	warmup := set.Cluster.Experiment.WarmupDelay
	for p := 0; p < pairs; p++ {
		src, dst := 2*p, 2*p+1
		for v := 0; v < 2; v++ {
			name := fmt.Sprintf("vm%d-%d", p, v)
			s.AddVM(hybridmig.VMSpec{Name: name, Node: src, Approach: hybridmig.OurApproach})
			s.MigrateAt(name, dst, warmup+float64(p%50)+float64(v))
		}
	}
	if _, err := s.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: 10k campaign smoke: %v\n", err)
		os.Exit(1)
	}
}

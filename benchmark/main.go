// Command benchmark is the repository's benchmark. It runs one of five
// workloads, each chosen to put most of the simulator's host time into a
// different layer, checks every simulation result against references, and
// prints every metric by name with its unit; the last line of its output is
// one JSON object:
//
//	{"correct": true, "attempted": 64, "failed": 0, "metrics": {"wall_s": {"value": 1.93, "unit": "s"}, ...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--report FILE]
//	bash benchmark/run.sh -compare OLD.jsonl NEW.jsonl [-spec BENCHMARK.json]
//	bash benchmark/run.sh -update-ref [-ref benchmark/testdata/reference.txt]
//
// A run measures for about --seconds: it re-executes itself once per pass,
// so every pass has its own heap and peak RSS, and reports medians over the
// passes. --trace 0 prints the end-to-end metrics; --trace 1 runs the
// passes again plus one profiled pass and the layer probes, and prints the
// per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// runDeadline bounds a whole invocation, children included.
const runDeadline = 170 * time.Second

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; 1 reproduces the experiment drivers' cells")
	seconds := fs.Float64("seconds", 24, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 = per-layer metrics from a profiled pass and the layer probes")
	smoke := fs.Bool("smoke", false, "small scale, one cell per workload, one pass")
	report := fs.String("report", "", "append this run's result and environment as one JSON line to FILE")
	compare := fs.Bool("compare", false, "compare two report files (old new) instead of measuring")
	spec := fs.String("spec", "BENCHMARK.json", "with -compare: the benchmark definition holding the bounds")
	updateRef := fs.Bool("update-ref", false, "rewrite the seed-1 reference digests instead of measuring")
	refPath := fs.String("ref", filepath.Join("benchmark", "testdata", "reference.txt"), "with -update-ref: the reference file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two report files: old new")
			return 2
		}
		return compareReports(stdout, *spec, fs.Arg(0), fs.Arg(1))
	case *updateRef:
		if err := updateReferences(*refPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	if lookupWorkload(*name) == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	refs, err := parseReferences(referenceData)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	o := benchOpts{
		workload: *name, seed: uint64(*seed), seconds: *seconds, traced: *traceFlag == 1, smoke: *smoke,
		refs: refs, spansPath: filepath.Join(buildDir(), "spans-"+*name+".json"),
	}
	if o.traced {
		if err := os.MkdirAll(buildDir(), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	env := readEnv()
	fmt.Fprintf(stdout, "# env nproc=%d gomaxprocs=%d go=%s cpu=%q kernel=%s revision=%s\n",
		env.NProc, env.GOMAXPROCS, env.Go, env.CPU, env.Kernel, env.Revision)
	res, err := runBenchmark(ctx, o, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if *report != "" {
		l := reportLine{Workload: o.workload, Seed: o.seed, Trace: *traceFlag, RunsPerPass: res.runsPerPass, Env: env, Result: *res}
		if err := appendReport(*report, l); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// buildDir is where build outputs and the traced run's spans go: the
// directory the build script uses, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

type benchOpts struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	smoke     bool
	refs      map[string]string // see referenceKey
	spansPath string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	runsPerPass int // fixed by the workload; 1 makes the run quantiles the pass time
}

// pass is one child's report plus what the parent measured around it.
type pass struct {
	rep       *childReport
	childWall float64 // spawn to exit
	setupS    float64 // spawn to the first run
	maxRSSMB  float64
	p50, p90  float64 // run latency quantiles within the pass, ms, as measured
	speed     float64 // calibrationRefS / median calibration loop time around the pass
}

// tracedReserve is what the traced child adds to a pass: the profiler's
// overhead and the layer probes.
const tracedReserve = 6.0

// setupOnlyPasses is how many extra set-ups a run without tracing makes.
const setupOnlyPasses = 5

// runBenchmark measures one workload: without tracing, set-up-only passes
// and then untraced passes until the time is used (at least three); with
// tracing, two untraced passes and one profiled pass with the probes. It
// checks every run and prints a table.
func runBenchmark(ctx context.Context, o benchOpts, out io.Writer) (*result, error) {
	w := lookupWorkload(o.workload)
	minPasses := 3
	switch {
	case o.smoke:
		minPasses = 1
	case o.traced:
		minPasses = 2
	}
	chk := newChecker(o, w)
	fmt.Fprintf(out, "# workload=%s seed=%d trace=%t\n", o.workload, o.seed, o.traced)
	start := time.Now()

	// The calibration loop runs here, between passes, on one P like the
	// passes (see calibrate.go).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(childGOMAXPROCS))
	calibrate() // warm-up: the first loop grows the heap
	cal := calibrateN(calibrationSamples)
	spawn := func(args ...string) (pass, error) {
		p, err := spawnPass(ctx, o, args...)
		if err != nil {
			return p, err
		}
		after := calibrateN(calibrationSamples)
		p.speed = calibrationRefS / median(append(cal, after...))
		cal = after
		return p, nil
	}

	// Set-up is mostly process start, a few milliseconds for the batch
	// workloads, and swings far more than a pass does. So that setup_s is a
	// median of more samples than the passes give, a plain run also sets the
	// workload up setupOnlyPasses times without running it.
	var setups []pass
	if !o.traced {
		n := setupOnlyPasses
		if o.smoke {
			n = 1
		}
		for i := 0; i < n; i++ {
			p, err := spawn("-setup-only")
			if err != nil {
				chk.childFailed(err)
				break
			}
			setups = append(setups, p)
			fmt.Fprintf(out, "# set-up %d: speed %.4f, raw setup %.4f s\n", i+1, p.speed, p.setupS)
		}
	}

	var timed []pass
	for {
		if len(timed) >= minPasses {
			est := median(childWalls(timed))
			need := est
			if o.traced {
				need += est + tracedReserve
			}
			if o.smoke || time.Since(start).Seconds()+need > o.seconds {
				break
			}
		}
		p, err := spawn()
		if err != nil {
			chk.childFailed(err)
			break
		}
		chk.add(p.rep)
		timed = append(timed, p)
		p.print(out, fmt.Sprintf("pass %d", len(timed)))
	}
	if len(timed) == 0 {
		return nil, errors.New("no pass completed")
	}
	var traced *pass
	if o.traced {
		p, err := spawn("-traced", "-spans", o.spansPath)
		if err != nil {
			chk.childFailed(err)
		} else {
			chk.add(p.rep)
			traced = &p
			p.print(out, "traced pass")
		}
	}

	res := &result{Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metricValue{},
		runsPerPass: len(timed[0].rep.Runs)}
	res.Correct = chk.failed == 0
	for _, p := range chk.problems {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED %s\n", p)
	}
	var defs []metricDef
	values := map[string]float64{}
	if o.traced {
		if traced == nil {
			return nil, errors.New("traced pass failed")
		}
		defs = perLayer()
		tracedValues(values, traced, timed)
	} else {
		defs = endToEnd
		endToEndValues(values, timed, setups)
	}
	fmt.Fprintf(out, "# attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "# %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	return res, nil
}

// print reports a pass's raw measurements and its speed factor as one
// comment line.
func (p pass) print(out io.Writer, label string) {
	fmt.Fprintf(out, "# %s: speed %.4f, raw wall %.4f s, cpu %.4f s, setup %.4f s, run p50 %.3f ms, p90 %.3f ms, maxrss %.1f MB\n",
		label, p.speed, p.rep.PassWallS, p.rep.PassCPUS, p.setupS, p.p50, p.p90, p.maxRSSMB)
}

func childWalls(ps []pass) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.childWall
	}
	return xs
}

// endToEndValues computes the end-to-end metrics from the untraced passes:
// the median over the passes of each pass's value, host times scaled by the
// pass's speed factor (see calibrate.go). setup_s also takes the set-up-only
// passes.
func endToEndValues(v map[string]float64, ps, setups []pass) {
	var wall, cpu, rss, alloc, setup, retained, p50, p90 []float64
	for _, p := range setups {
		setup = append(setup, p.setupS*p.speed)
	}
	for _, p := range ps {
		wall = append(wall, p.rep.PassWallS*p.speed)
		cpu = append(cpu, p.rep.PassCPUS*p.speed)
		rss = append(rss, p.maxRSSMB)
		alloc = append(alloc, p.rep.AllocBytes/(1<<30))
		setup = append(setup, p.setupS*p.speed)
		retained = append(retained, p.rep.RetainedBytes/(1<<20))
		p50 = append(p50, p.p50*p.speed)
		p90 = append(p90, p.p90*p.speed)
	}
	v["wall_s"] = median(wall)
	v["cpu_s"] = median(cpu)
	v["peak_rss_mb"] = median(rss)
	v["alloc_gb"] = median(alloc)
	v["setup_s"] = median(setup)
	v["run_p50_ms"] = median(p50)
	v["run_p90_ms"] = median(p90)
	v["retained_heap_mb"] = median(retained)
}

// tracedValues computes the per-layer metrics from the traced pass.
func tracedValues(v map[string]float64, traced *pass, timed []pass) {
	tr := traced.rep.Trace
	var wall []float64
	for _, p := range timed {
		wall = append(wall, p.rep.PassWallS*p.speed)
	}
	v["bench.trace_overhead_pct"] = 100 * (traced.rep.PassWallS*traced.speed/median(wall) - 1)
	var total float64
	for _, s := range tr.LayerCPUS {
		total += s
	}
	v["profile.cpu_s"] = total
	for _, l := range profiledLayers {
		v[l+".self_pct"] = 0
	}
	for l, s := range tr.LayerCPUS {
		key := l + ".self_pct"
		if _, ok := v[key]; !ok {
			key = "other.self_pct"
		}
		if total > 0 {
			v[key] += 100 * s / total
		}
	}
	for _, m := range []map[string]float64{tr.Runtime, tr.Counts, tr.Probes} {
		for k, x := range m {
			v[k] = x
		}
	}
}

// spawnPass re-executes the benchmark as a child that sets up the workload
// and runs one pass, and waits for it to exit. extra are child flags:
// -traced, -spans, -setup-only.
func spawnPass(ctx context.Context, o benchOpts, extra ...string) (pass, error) {
	exe, err := os.Executable()
	if err != nil {
		return pass{}, err
	}
	args := append([]string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10)}, extra...)
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(childGOMAXPROCS))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return pass{}, fmt.Errorf("%s pass: %w", o.workload, err)
	}
	p := pass{childWall: time.Since(start).Seconds(), rep: &childReport{}}
	if err := json.Unmarshal(stdout.Bytes(), p.rep); err != nil {
		return pass{}, fmt.Errorf("%s pass: bad report: %w", o.workload, err)
	}
	p.setupS = float64(p.rep.SetupDoneUnixNano-start.UnixNano()) / 1e9
	lat := make([]float64, len(p.rep.Runs))
	for i, r := range p.rep.Runs {
		lat[i] = r.Ms
	}
	p.p50, p.p90 = quantile(lat, 0.50), quantile(lat, 0.90)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.maxRSSMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return p, nil
}

// checker applies the correctness rules to every run of every pass: a run
// fails if it returned an error or an incomplete plan, if its digest differs
// from the same run in another pass, or if it differs from the reference
// where one applies.
type checker struct {
	o                 benchOpts
	checkRef          bool
	seen              map[string]string
	problems          []string
	attempted, failed int
}

func newChecker(o benchOpts, w *workload) *checker {
	return &checker{o: o, checkRef: o.seed == 1 || w.refsAnySeed, seen: map[string]string{}}
}

func (c *checker) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// childFailed counts a pass whose process failed as one failed run.
func (c *checker) childFailed(err error) {
	c.attempted++
	c.failed++
	c.problem("%v", err)
}

func (c *checker) add(rep *childReport) {
	for _, r := range rep.Runs {
		c.attempted++
		ok := r.Err == ""
		if !ok {
			c.problem("%s: %s", r.Name, r.Err)
		}
		if ok {
			if prev, dup := c.seen[r.Name]; !dup {
				c.seen[r.Name] = r.Digest
			} else if prev != r.Digest {
				ok = false
				c.problem("%s: digest %s differs from an earlier repeat's %s", r.Name, r.Digest, prev)
			}
		}
		if ok && c.checkRef {
			key := referenceKey(c.o.workload, c.o.smoke, r.Name)
			if ref, has := c.o.refs[key]; !has || ref != r.Digest {
				ok = false
				c.problem("%s: digest %s, reference %q (benchmark -update-ref rewrites references)", r.Name, r.Digest, ref)
			}
		}
		if !ok {
			c.failed++
		}
	}
}

// reportLine is one line of a --report file: a run's result with the
// environment it ran in. -compare reads these files.
type reportLine struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Trace       int     `json:"trace"`
	RunsPerPass int     `json:"runs_per_pass"`
	Env         envInfo `json:"env"`
	Result      result  `json:"result"`
}

func appendReport(path string, l reportLine) error {
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

//go:embed testdata/reference.txt
var referenceData string

// referenceKey names a run in the reference file.
func referenceKey(workload string, smoke bool, run string) string {
	mode := "full"
	if smoke {
		mode = "smoke"
	}
	return workload + " " + mode + " " + run
}

// parseReferences reads "<workload> <full|smoke> <run> <digest>" lines.
func parseReferences(data string) (map[string]string, error) {
	refs := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("reference line %d: want 4 fields, got %d", n, len(f))
		}
		refs[f[0]+" "+f[1]+" "+f[2]] = f[3]
	}
	return refs, sc.Err()
}

// updateReferences runs one pass of every workload at seed 1, full and
// smoke, in this process and rewrites the reference file.
func updateReferences(path string) error {
	var lines []string
	for _, w := range workloads {
		for _, smoke := range []bool{false, true} {
			p, err := w.setup(newSetupOpts(1, smoke))
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			recs := p.execute()
			p.close()
			seen := map[string]bool{}
			for _, r := range recs {
				if r.Err != "" {
					return fmt.Errorf("%s %s: %s", w.name, r.Name, r.Err)
				}
				if key := referenceKey(w.name, smoke, r.Name); !seen[key] {
					seen[key] = true
					lines = append(lines, key+" "+r.Digest)
				}
			}
		}
	}
	sort.Strings(lines)
	header := "# Seed-1 result digests (see digestResult); rewrite with: bash benchmark/run.sh -update-ref\n"
	return os.WriteFile(path, []byte(header+strings.Join(lines, "\n")+"\n"), 0o644)
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// childEnv marks a process the benchmark re-executed to run one pass. Each
// pass gets a fresh process so its heap, GC state and peak RSS are its own.
const childEnv = "HYBRIDMIG_BENCH_CHILD"

// childReport is what a child prints on its standard output.
type childReport struct {
	SetupDoneUnixNano int64        `json:"setup_done_unix_nano"`
	PassWallS         float64      `json:"pass_wall_s"`
	PassCPUS          float64      `json:"pass_cpu_s"`
	AllocBytes        float64      `json:"alloc_bytes"`
	RetainedBytes     float64      `json:"retained_bytes"`
	Runs              []runRecord  `json:"runs"`
	Trace             *traceReport `json:"trace,omitempty"`
}

// traceReport holds the traced pass's per-layer numbers.
type traceReport struct {
	LayerCPUS map[string]float64 `json:"layer_cpu_s"` // profiled self CPU by layer
	Runtime   map[string]float64 `json:"runtime"`
	Counts    map[string]float64 `json:"counts"`
	Probes    map[string]float64 `json:"probes"`
}

// childMain sets up one workload, runs one pass (unless -setup-only) and
// reports it.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Uint64("seed", 1, "")
	traced := fs.Bool("traced", false, "")
	smoke := fs.Bool("smoke", false, "")
	setupOnly := fs.Bool("setup-only", false, "")
	spansPath := fs.String("spans", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := runChild(*name, *seed, *traced, *smoke, *setupOnly, *spansPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: %v\n", err)
		return 1
	}
	return 0
}

func runChild(name string, seed uint64, traced, smoke, setupOnly bool, spansPath string) (*childReport, error) {
	w := lookupWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	o := newSetupOpts(seed, smoke)
	if traced {
		o.tally, o.spans = &tally{}, newSpanLog()
	}
	p, err := w.setup(o)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", name, err)
	}
	rep := &childReport{SetupDoneUnixNano: time.Now().UnixNano()}
	if setupOnly {
		p.close()
		return rep, nil
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	rt0, cpu0, start := readRuntime(), cpuTime(), time.Now()
	rep.Runs = p.execute()
	rep.PassWallS = time.Since(start).Seconds()
	rep.PassCPUS = cpuTime() - cpu0
	rt1 := readRuntime()
	if traced {
		pprof.StopCPUProfile()
	}
	rep.AllocBytes = rt1.allocBytes - rt0.allocBytes
	runtime.GC() // twice: the first only moves sync.Pool contents to the victim cache
	runtime.GC()
	rep.RetainedBytes = readRuntime().liveBytes
	p.close()

	if !traced {
		return rep, nil
	}
	cp, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	probes, err := runProbes(smoke)
	if err != nil {
		return nil, err
	}
	rep.Trace = &traceReport{
		LayerCPUS: foldByLayer(cp),
		Runtime: map[string]float64{
			"runtime.gc_cpu_s":          rt1.gcCPUS - rt0.gcCPUS,
			"runtime.gc_cycles":         rt1.gcCycles - rt0.gcCycles,
			"runtime.alloc_objects_m":   (rt1.allocObjects - rt0.allocObjects) / 1e6,
			"runtime.sched_wait_p50_us": histQuantile(rt0.schedLat, rt1.schedLat, 0.50) * 1e6,
			"runtime.sched_wait_p99_us": histQuantile(rt0.schedLat, rt1.schedLat, 0.99) * 1e6,
		},
		Counts: o.tally.counts(),
		Probes: probes,
	}
	if spansPath != "" {
		if err := o.spans.write(spansPath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// cpuTime returns the process's user plus system CPU seconds so far, all
// threads included (GC workers, the parallel kernel's shards, HTTP).
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeSample is one reading of the runtime/metrics the benchmark uses.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles, gcCPUS, liveBytes float64
	schedLat                                              *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCycles:     float64(s[2].Value.Uint64()),
		gcCPUS:       s[3].Value.Float64(),
		liveBytes:    float64(s[4].Value.Uint64()),
		schedLat:     s[5].Value.Float64Histogram(),
	}
}

// histQuantile returns the q-quantile of the samples a cumulative histogram
// gained between two readings, interpolating linearly inside the bucket.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	counts := make([]float64, len(after.Counts))
	var total float64
	for i := range counts {
		counts[i] = float64(after.Counts[i] - before.Counts[i])
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	var cum float64
	for i, c := range counts {
		if c > 0 && cum+c >= rank {
			lo, hi := after.Buckets[i], after.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return after.Buckets[len(after.Buckets)-1]
}

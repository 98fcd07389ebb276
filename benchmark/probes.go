package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"github.com/hybridmig/hybridmig/internal/benchscen"
	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/experiments"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
	"github.com/hybridmig/hybridmig/internal/strategy"
	_ "github.com/hybridmig/hybridmig/internal/strategy/adaptive" // the seventh strategy, for its fig3 probe
)

// Layer probes time direct calls into one layer each. They are the same on
// every workload; the traced run executes them after its pass so each
// layer's speed is on record next to the workload's CPU shares.

// runProbes runs every probe and returns its metrics by name. Smoke probes
// run a few iterations at small scale, enough to check they work.
func runProbes(smoke bool) (map[string]float64, error) {
	testing.Init()
	benchtime := "100ms"
	if smoke {
		benchtime = "10x"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	micro := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"sim.proc_switch_ns", procSwitch},
		{"sim.after_fire_ns", benchscen.AfterFire},
		{"sim.timer_churn_ns", benchscen.TimerChurn},
		{"flow.churn_pfs_ns", flowChurnPFS},
		{"flow.churn_disjoint_1000_ns", func(b *testing.B) { benchscen.FlowChurn(b, 1000, false) }},
		{"flow.churn_shared_1000_ns", func(b *testing.B) { benchscen.FlowChurn(b, 1000, true) }},
		{"guest.mark_range_ns", markRange},
	}
	for _, m := range micro {
		r := testing.Benchmark(m.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("probe %s failed", m.name)
		}
		out[m.name] = float64(r.T.Nanoseconds()) / float64(r.N)
	}

	scale, reps := experiments.ScalePaper, 3
	if smoke {
		scale, reps = experiments.ScaleSmall, 1
	}
	for _, name := range strategy.Names() {
		var ms []float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			experiments.RunFig3One(scale, cluster.Approach(name), "IOR")
			ms = append(ms, msSince(start))
		}
		out["strategy."+name+".fig3_ms"] = median(ms)
	}

	svc, err := serviceProbe(smoke)
	if err != nil {
		return nil, err
	}
	for k, v := range svc {
		out[k] = v
	}
	return out, nil
}

// procSwitch is a process-switch round trip: one process sleeps and
// signals a condition another waits on, so each operation dispatches both
// processes once through the kernel's resume/yield handoff.
func procSwitch(b *testing.B) {
	e := sim.New()
	var c sim.Cond
	n := b.N
	e.Go("waiter", func(p *sim.Proc) {
		for {
			c.Wait(p)
		}
	})
	e.Go("pinger", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
			c.Signal(e)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	e.Shutdown()
}

// flowChurnPFS starts and cancels one flow against 30 standing PFS write
// flows: each client writes two stripes over its NIC, the fabric and the
// NIC and disk of two servers, and neighbouring clients share a server
// disk, so every flow sits in one allocator component as in fig4-pvfs.
func flowChurnPFS(b *testing.B) {
	const clients = 30
	e := sim.New()
	cl := fabric.NewCluster(e, clients, params.DefaultTestbed())
	for i := 0; i < clients; i++ {
		for _, s := range []int{i, i + 1} {
			path := cl.RemoteWritePath(cl.Nodes[i], cl.Nodes[(s+clients/2)%clients])
			cl.Net.Start(&flow.Flow{Links: path, Size: 1e15})
		}
	}
	churn := cl.RemoteWritePath(cl.Nodes[0], cl.Nodes[clients/2])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := cl.Net.AcquireFlow()
		f.Links = churn
		f.Size = 1e15
		cl.Net.Start(f)
		cl.Net.Cancel(f)
		cl.Net.ReleaseFlow(f)
	}
	b.StopTimer()
	e.Stop()
}

// markRange marks a paper-scale 4 GiB image resident in a guest page
// cache, as a control transfer does for every chunk the destination holds.
func markRange(b *testing.B) {
	tb := cluster.New(cluster.DefaultConfig(1))
	c := tb.Launch("probe", 0, cluster.OurApproach).Guest.Cache
	size := tb.Cfg.Testbed.ImageSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Invalidate()
		c.MarkCachedRange(0, size)
	}
	b.StopTimer()
	tb.Eng.Shutdown()
}

// serviceProbe sends 20 runs of the service mix, one at a time, through an
// in-process migsimd and reports the median of each part of a run: the
// client-side submit, stream and result calls, and the server-side queue
// wait and execution read from the run snapshot.
func serviceProbe(smoke bool) (map[string]float64, error) {
	cases, err := serviceCases(1)
	if err != nil {
		return nil, err
	}
	h, err := startHarness()
	if err != nil {
		return nil, err
	}
	defer h.close()
	n := 20
	if smoke {
		n = 4
	}
	parts := map[string][]float64{}
	for i := 0; i < n; i++ {
		tm, err := h.do(&cases[i%len(cases)], true, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("service probe: %w", err)
		}
		for name, d := range map[string]time.Duration{
			"submit": tm.submit, "queue_wait": tm.queueWait, "exec": tm.exec,
			"stream": tm.stream, "result": tm.result,
		} {
			parts[name] = append(parts[name], float64(d.Nanoseconds())/1e6)
		}
	}
	out := map[string]float64{}
	for name, ms := range parts {
		out["service."+name+"_ms_p50"] = median(ms)
	}
	return out, nil
}

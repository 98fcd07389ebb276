package workload

import (
	"testing"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

const mb = params.MB

func smallIOR() params.IOR {
	return params.IOR{Iterations: 3, FileSize: 16 * mb, BlockSize: 256 * params.KB}
}

func smallAsyncWR() params.AsyncWR {
	return params.AsyncWR{
		Iterations:      20,
		DataPerIter:     1 * mb,
		ComputeTime:     0.2,
		MemoryDirtyRate: 4 * mb,
		WorkingSet:      8 * mb,
	}
}

func TestIORReportsThroughput(t *testing.T) {
	tb := cluster.New(cluster.SmallConfig(4))
	inst := tb.Launch("vm0", 0, cluster.OurApproach)
	w := NewIOR(smallIOR())
	tb.Eng.Go("ior", func(p *sim.Proc) { w.Run(p, inst.Guest) })
	if err := tb.Eng.RunUntil(1e5); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Shutdown()
	r := w.Report
	if r.Iterations != 3 {
		t.Fatalf("iterations = %d", r.Iterations)
	}
	if r.WriteBytes != 3*16*mb || r.ReadBytes != 3*16*mb {
		t.Fatalf("bytes = %v/%v", r.WriteBytes, r.ReadBytes)
	}
	// Writes absorb at cache speed (266 MB/s) for this small file; reads of
	// just-written data hit the cache at ~1 GB/s.
	if bw := r.WriteBW(); bw < 50*mb || bw > 300*mb {
		t.Fatalf("write BW = %.1f MB/s, want between disk and cache speed", bw/mb)
	}
	if bw := r.ReadBW(); bw < 300*mb {
		t.Fatalf("read BW = %.1f MB/s, want near cache speed", bw/mb)
	}
	if r.Runtime <= 0 {
		t.Fatal("no runtime")
	}
}

func TestAsyncWRCompletesAllIterations(t *testing.T) {
	tb := cluster.New(cluster.SmallConfig(4))
	inst := tb.Launch("vm0", 0, cluster.OurApproach)
	w := NewAsyncWR(smallAsyncWR())
	tb.Eng.Go("awr", func(p *sim.Proc) { w.Run(p, inst.Guest) })
	if err := tb.Eng.RunUntil(1e5); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Shutdown()
	if w.Report.Counter != 20 || w.Report.Iterations != 20 {
		t.Fatalf("counter = %d, iterations = %d, want 20", w.Report.Counter, w.Report.Iterations)
	}
	if w.Report.WriteBytes != 20*mb {
		t.Fatalf("write bytes = %v", w.Report.WriteBytes)
	}
	// 20 iterations x 0.2s compute = 4s minimum; writes are async so the
	// runtime should be close to compute-bound.
	if w.Report.Runtime < 4 || w.Report.Runtime > 8 {
		t.Fatalf("runtime = %v, want ~4s (compute-bound)", w.Report.Runtime)
	}
	// ~1 MB / 0.2s = 5 MB/s steady I/O pressure.
	if bw := w.Report.WriteBW(); bw < 2*mb || bw > 6*mb {
		t.Fatalf("write pressure = %.1f MB/s, want ~5", bw/mb)
	}
}

// TestAsyncWROneWriter: every write of a run goes through one writer
// process, which stays parked once the run ends, so the processes left
// after Drain are the idle guest's plus that one writer, whatever the
// iteration count, and every buffer is still written.
func TestAsyncWROneWriter(t *testing.T) {
	live := func(iters int) (int, float64) {
		tb := cluster.New(cluster.SmallConfig(4))
		inst := tb.Launch("vm0", 0, cluster.OurApproach)
		p := smallAsyncWR()
		p.Iterations = iters
		w := NewAsyncWR(p)
		if iters > 0 {
			tb.Eng.Go("awr", func(p *sim.Proc) { w.Run(p, inst.Guest) })
		}
		if err := tb.Eng.Drain(1e5); err != nil {
			t.Fatal(err)
		}
		defer tb.Eng.Shutdown()
		return tb.Eng.LiveProcs(), w.Report.WriteBytes
	}
	idle, _ := live(0)
	for _, iters := range []int{1, 5, 20} {
		n, written := live(iters)
		if n != idle+1 {
			t.Errorf("%d iterations: %d live processes after Drain, want %d (the idle guest's plus one writer)", iters, n, idle+1)
		}
		if want := float64(iters) * mb; written != want {
			t.Errorf("%d iterations: wrote %v bytes, want %v", iters, written, want)
		}
	}
}

func TestAsyncWRDeadlineStopsEarly(t *testing.T) {
	tb := cluster.New(cluster.SmallConfig(4))
	inst := tb.Launch("vm0", 0, cluster.OurApproach)
	w := NewAsyncWR(smallAsyncWR())
	w.Deadline = 2.0
	tb.Eng.Go("awr", func(p *sim.Proc) { w.Run(p, inst.Guest) })
	if err := tb.Eng.RunUntil(1e5); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Shutdown()
	if w.Report.Counter >= 20 {
		t.Fatalf("counter = %d, deadline did not stop the run", w.Report.Counter)
	}
	if w.Report.Counter < 5 {
		t.Fatalf("counter = %d, stopped far too early", w.Report.Counter)
	}
}

func TestAsyncWRDirtiesMemory(t *testing.T) {
	tb := cluster.New(cluster.SmallConfig(4))
	inst := tb.Launch("vm0", 0, cluster.OurApproach)
	w := NewAsyncWR(smallAsyncWR())
	tb.Eng.Go("awr", func(p *sim.Proc) { w.Run(p, inst.Guest) })
	var midDirty int64
	tb.Eng.At(2, func() { midDirty = inst.VM.Mem.DirtyBytes(2) })
	if err := tb.Eng.RunUntil(1e5); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Shutdown()
	if midDirty == 0 {
		t.Fatal("compute phase dirtied no memory")
	}
}

func TestBarrier(t *testing.T) {
	eng := sim.New()
	b := NewBarrier(3)
	var releases []sim.Time
	for i := 0; i < 3; i++ {
		d := float64(i)
		eng.Go("rank", func(p *sim.Proc) {
			p.Sleep(d)
			b.Wait(p)
			releases = append(releases, p.Now())
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(releases) != 3 {
		t.Fatalf("releases = %v", releases)
	}
	for _, r := range releases {
		if r != 2 {
			t.Fatalf("rank released at %v, want 2 (slowest arrival)", r)
		}
	}
}

func TestBarrierReusableAcrossSupersteps(t *testing.T) {
	eng := sim.New()
	b := NewBarrier(2)
	steps := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		eng.Go("rank", func(p *sim.Proc) {
			for s := 0; s < 5; s++ {
				p.Sleep(float64(i) * 0.1)
				b.Wait(p)
				steps[i]++
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if steps[0] != 5 || steps[1] != 5 {
		t.Fatalf("steps = %v", steps)
	}
}

func smallCM1() params.CM1 {
	return params.CM1{
		Procs: 4, GridX: 2, GridY: 2,
		Intervals:       3,
		ComputePerIntvl: 1.0,
		OutputSize:      4 * mb,
		HaloBytes:       256 * params.KB,
		MemoryDirtyRate: 8 * mb,
		WorkingSet:      16 * mb,
	}
}

func TestCM1RunsToCompletion(t *testing.T) {
	tb := cluster.New(cluster.SmallConfig(8))
	cm1 := NewCM1(smallCM1(), tb.Cl)
	insts := make([]*cluster.Instance, 4)
	for i := 0; i < 4; i++ {
		insts[i] = tb.Launch("vm", i, cluster.OurApproach)
	}
	peers := peersOf(insts)
	for i := 0; i < 4; i++ {
		i := i
		tb.Eng.Go("rank", func(p *sim.Proc) { cm1.Rank(p, i, insts[i].Guest, peers) })
	}
	if err := tb.Eng.RunUntil(1e5); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Shutdown()
	if cm1.Report.Intervals != 3 {
		t.Fatalf("intervals = %d", cm1.Report.Intervals)
	}
	// 3 supersteps x ~1s compute plus exchange/dump overhead.
	if cm1.Report.Runtime < 3 || cm1.Report.Runtime > 10 {
		t.Fatalf("runtime = %v, want a bit over 3s", cm1.Report.Runtime)
	}
}

func TestCM1SlowRankDragsAll(t *testing.T) {
	// Pausing one rank's VM for 2s must delay the whole application by ~2s:
	// the BSP coupling of Figure 5(c).
	runtime := func(pause bool) float64 {
		tb := cluster.New(cluster.SmallConfig(8))
		cm1 := NewCM1(smallCM1(), tb.Cl)
		insts := make([]*cluster.Instance, 4)
		for i := 0; i < 4; i++ {
			insts[i] = tb.Launch("vm", i, cluster.OurApproach)
		}
		peers := peersOf(insts)
		for i := 0; i < 4; i++ {
			i := i
			tb.Eng.Go("rank", func(p *sim.Proc) { cm1.Rank(p, i, insts[i].Guest, peers) })
		}
		if pause {
			tb.Eng.At(0.5, func() { insts[2].VM.Pause() })
			tb.Eng.At(2.5, func() { insts[2].VM.Resume() })
		}
		if err := tb.Eng.RunUntil(1e5); err != nil {
			t.Fatal(err)
		}
		tb.Eng.Shutdown()
		return cm1.Report.Runtime
	}
	base := runtime(false)
	slow := runtime(true)
	if slow < base+1.5 {
		t.Fatalf("pausing one rank added only %v, want ~2s (barrier coupling)", slow-base)
	}
}

// peersOf adapts instances to the guest slice CM1 expects.
func peersOf(insts []*cluster.Instance) []*guest.Guest {
	out := make([]*guest.Guest, len(insts))
	for i, in := range insts {
		out[i] = in.Guest
	}
	return out
}

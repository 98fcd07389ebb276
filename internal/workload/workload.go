// Package workload implements the three workloads of the paper's
// evaluation: the IOR storage benchmark (Section 5.3), the AsyncWR
// compute+asynchronous-write benchmark the authors built (Sections 5.3–5.4),
// and a CM1-like BSP stencil application (Section 5.5).
//
// Every workload runs as a guest process, drives the guest I/O stack, and
// instruments itself with the quantities the paper's figures report:
// achieved read/write throughput, computational potential (AsyncWR's
// counter), and total execution time.
package workload

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// IORReport carries IOR's measured throughput.
type IORReport struct {
	WriteBytes float64
	WriteTime  float64
	ReadBytes  float64
	ReadTime   float64
	Runtime    float64
	Iterations int
}

// WriteBW returns the average achieved write bandwidth (bytes/s).
func (r IORReport) WriteBW() float64 {
	if r.WriteTime <= 0 {
		return 0
	}
	return r.WriteBytes / r.WriteTime
}

// ReadBW returns the average achieved read bandwidth (bytes/s).
func (r IORReport) ReadBW() float64 {
	if r.ReadTime <= 0 {
		return 0
	}
	return r.ReadBytes / r.ReadTime
}

// IOR is the HPC I/O benchmark: each iteration writes and then reads one
// file sequentially in fixed-size blocks through the POSIX interface. I/O
// transits the host-side cache (which is what allows the paper's 1 GB/s
// read and 266 MB/s write maxima over a 55 MB/s disk) but, as a storage
// benchmark, it runs O_DIRECT inside the guest: set the instance's
// Guest.Buffered to false so guest memory is not charged for cached file
// data.
type IOR struct {
	P      params.IOR
	Report IORReport
}

// NewIOR returns an IOR instance with the given configuration.
func NewIOR(p params.IOR) *IOR { return &IOR{P: p} }

// Run executes the benchmark to completion.
func (w *IOR) Run(p *sim.Proc, g *guest.Guest) {
	start := p.Now()
	f := g.FS.Create("ior.dat", w.P.FileSize)
	for it := 0; it < w.P.Iterations; it++ {
		t0 := p.Now()
		for off := int64(0); off < w.P.FileSize; off += w.P.BlockSize {
			n := w.P.BlockSize
			if off+n > w.P.FileSize {
				n = w.P.FileSize - off
			}
			g.FS.Write(p, f, off, n)
		}
		w.Report.WriteTime += p.Now() - t0
		w.Report.WriteBytes += float64(w.P.FileSize)

		t0 = p.Now()
		for off := int64(0); off < w.P.FileSize; off += w.P.BlockSize {
			n := w.P.BlockSize
			if off+n > w.P.FileSize {
				n = w.P.FileSize - off
			}
			g.FS.Read(p, f, off, n)
		}
		w.Report.ReadTime += p.Now() - t0
		w.Report.ReadBytes += float64(w.P.FileSize)
		w.Report.Iterations++
	}
	w.Report.Runtime = p.Now() - start
}

// AsyncWRReport carries AsyncWR's measurements.
type AsyncWRReport struct {
	Counter    int64 // computational potential: completed compute units
	WriteBytes float64
	Runtime    float64
	Iterations int
}

// WriteBW returns the average write pressure over the whole run.
func (r AsyncWRReport) WriteBW() float64 {
	if r.Runtime <= 0 {
		return 0
	}
	return r.WriteBytes / r.Runtime
}

// AsyncWR mixes computation with buffered asynchronous writes: each
// iteration runs a CPU-bound task that fills a memory buffer, then hands the
// previous buffer to an asynchronous writer (double buffering). The counter
// incremented by the compute task is the paper's measure of computational
// potential (Section 5.4).
type AsyncWR struct {
	P params.AsyncWR
	// Deadline, when positive, stops the run at that absolute simulation
	// time even if iterations remain (degradation measurements compare
	// counters over a fixed horizon).
	Deadline sim.Time
	Report   AsyncWRReport
}

// NewAsyncWR returns an AsyncWR instance with the given configuration.
func NewAsyncWR(p params.AsyncWR) *AsyncWR { return &AsyncWR{P: p} }

// Run executes the benchmark.
func (w *AsyncWR) Run(p *sim.Proc, g *guest.Guest) {
	start := p.Now()
	eng := p.Engine()
	total := int64(w.P.Iterations) * w.P.DataPerIter
	f := g.FS.Create("asyncwr.dat", total)

	// The compute phase dirties the double buffers and scratch state.
	reg := g.VM.Mem.Alloc(w.P.WorkingSet, true)
	dirt := g.VM.Mem.NewDirtier(reg, w.P.MemoryDirtyRate)

	// Double buffering: one write in flight, taken by one writer process per
	// run. The first hand-off spawns it and each later one wakes it, which
	// queues one event where a spawn would have, so event order and sequence
	// numbers are those of a fresh process per write; the writer stays parked
	// for Shutdown, as the guest's writeback loop does.
	writer := sim.NewSemaphore(1)
	var kick sim.Cond
	next := int64(-1) // offset of the buffer handed off, -1 while none
	write := func(wp *sim.Proc) {
		for {
			for next < 0 {
				kick.Wait(wp)
			}
			off := next
			next = -1
			g.FS.Write(wp, f, off, w.P.DataPerIter)
			w.Report.WriteBytes += float64(w.P.DataPerIter)
			writer.Release(eng)
		}
	}
	for it := 0; it < w.P.Iterations; it++ {
		if w.Deadline > 0 && p.Now() >= w.Deadline {
			break
		}
		// Compute: keep the CPU busy incrementing the counter while
		// generating the next buffer.
		dirt.SetActive(true, p.Now())
		g.VM.Exec(p, w.P.ComputeTime)
		dirt.SetActive(false, p.Now())
		w.Report.Counter++
		w.Report.Iterations++

		// Hand the buffer to the asynchronous writer; block only if the
		// previous write has not finished (backpressure).
		writer.Acquire(p)
		next = int64(it) * w.P.DataPerIter
		if it == 0 {
			eng.Go(g.VM.Name+"/asyncwr-io", write)
		} else {
			kick.Signal(eng)
		}
	}
	writer.Acquire(p) // drain the last write
	writer.Release(eng)
	w.Report.Runtime = p.Now() - start
}

// Barrier synchronizes the BSP supersteps of CM1 ranks.
type Barrier struct {
	n       int
	arrived int
	gen     uint64
	cond    sim.Cond
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Wait blocks until all parties arrive.
func (b *Barrier) Wait(p *sim.Proc) {
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast(p.Engine())
		return
	}
	for b.gen == gen {
		b.cond.Wait(p)
	}
}

// CM1Report carries the application-level measurements of one CM1 run.
type CM1Report struct {
	Runtime   float64 // start of superstep 0 to last rank finishing
	Intervals int
}

// CM1 models the paper's atmospheric simulation: ranks on an x-by-y grid
// iterate supersteps of compute, halo exchange with the four neighbours, and
// a buffered output dump to local storage (Section 5.5). One CM1 value
// coordinates all ranks; each rank runs via Rank on its own instance.
type CM1 struct {
	P       params.CM1
	cl      *fabric.Cluster
	barrier *Barrier
	Report  CM1Report
	started sim.Time
	begun   bool
	left    int
}

// NewCM1 returns a coordinator for the configured grid; halo exchanges run
// over the given datacenter fabric.
func NewCM1(p params.CM1, cl *fabric.Cluster) *CM1 {
	if p.GridX*p.GridY != p.Procs {
		panic("workload: CM1 grid does not match process count")
	}
	return &CM1{P: p, cl: cl, barrier: NewBarrier(p.Procs), left: p.Procs}
}

// neighbors returns the grid neighbours of rank r (4-connectivity).
func (w *CM1) neighbors(r int) []int {
	x, y := r%w.P.GridX, r/w.P.GridX
	var out []int
	if x > 0 {
		out = append(out, r-1)
	}
	if x < w.P.GridX-1 {
		out = append(out, r+1)
	}
	if y > 0 {
		out = append(out, r-w.P.GridX)
	}
	if y < w.P.GridY-1 {
		out = append(out, r+w.P.GridX)
	}
	return out
}

// Rank runs MPI rank r of the application on the given guest. All ranks
// must be started for the barriers to release. peers exposes every rank's
// guest so halo exchanges follow VMs as they migrate.
func (w *CM1) Rank(p *sim.Proc, r int, g *guest.Guest, peers []*guest.Guest) {
	if !w.begun {
		w.begun = true
		w.started = p.Now()
	}
	eng := p.Engine()
	f := g.FS.Create(fmt.Sprintf("cm1.out.%d", r), int64(w.P.Intervals)*w.P.OutputSize)

	reg := g.VM.Mem.Alloc(w.P.WorkingSet, true)
	dirt := g.VM.Mem.NewDirtier(reg, w.P.MemoryDirtyRate)

	// The halo flows come from the net's pool and go back to it once the
	// interval's exchange is over; they share one completion callback.
	net := w.cl.Net
	nbs := w.neighbors(r)
	halo := make([]*flow.Flow, 0, len(nbs))
	var wg sim.WaitGroup
	haloDone := func() { wg.Done(eng) }
	for interval := 0; interval < w.P.Intervals; interval++ {
		// Compute phase: the stencil sweeps dirty the state arrays.
		dirt.SetActive(true, p.Now())
		g.VM.Exec(p, w.P.ComputePerIntvl)
		dirt.SetActive(false, p.Now())

		// Halo exchange with the grid neighbours (tagged app traffic so the
		// Fig. 5(b) accounting can exclude it), then a BSP barrier: one slow
		// rank drags everyone, the effect Figure 5(c) hinges on.
		here := g.VM.Node // migrations move the VM between intervals
		for _, nb := range nbs {
			fl := net.AcquireFlow()
			fl.Links, fl.Size, fl.Tag, fl.OnDone = w.cl.NetPath(here, peers[nb].VM.Node), float64(w.P.HaloBytes), flow.TagApp, haloDone
			wg.Add(1)
			net.Start(fl)
			halo = append(halo, fl)
		}
		wg.Wait(p)
		for i, fl := range halo {
			net.ReleaseFlow(fl)
			halo[i] = nil
		}
		halo = halo[:0]
		w.barrier.Wait(p)

		// Output dump: buffered write of the subdomain snapshot.
		g.FS.Write(p, f, int64(interval)*w.P.OutputSize, w.P.OutputSize)
	}
	w.left--
	if w.left == 0 {
		w.Report.Runtime = p.Now() - w.started
		w.Report.Intervals = w.P.Intervals
	}
}

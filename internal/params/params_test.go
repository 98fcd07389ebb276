package params

import (
	"math"
	"testing"
)

func TestByteHelpers(t *testing.T) {
	if KB != 1024 || MB != 1024*KB || GB != 1024*MB {
		t.Fatalf("byte helpers wrong: %d %d %d", KB, MB, GB)
	}
}

// TestDefaultTestbedMatchesPaper pins the Section 5.1 graphene-cluster
// constants every experiment derives from.
func TestDefaultTestbedMatchesPaper(t *testing.T) {
	tb := DefaultTestbed()
	if tb.NICBandwidth != 117.5*MB {
		t.Errorf("NIC = %v, want 117.5 MB/s", tb.NICBandwidth)
	}
	if tb.DiskBandwidth != 55*MB {
		t.Errorf("disk = %v, want 55 MB/s", tb.DiskBandwidth)
	}
	if tb.FabricBandwidth != 8*GB {
		t.Errorf("fabric = %v, want 8 GB/s", tb.FabricBandwidth)
	}
	if tb.RAM != 4*GB || tb.ImageSize != 4*GB {
		t.Errorf("RAM/image = %d/%d, want 4 GB each", tb.RAM, tb.ImageSize)
	}
	if tb.ChunkSize != 256*KB {
		t.Errorf("chunk = %d, want 256 KB", tb.ChunkSize)
	}
	if tb.NetLatency <= 0 || tb.DiskLatency <= 0 {
		t.Errorf("latencies must be positive: %v %v", tb.NetLatency, tb.DiskLatency)
	}
	// The image must be an exact multiple of the chunk size, or the
	// geometry would have a ragged tail chunk in every experiment.
	if tb.ImageSize%tb.ChunkSize != 0 {
		t.Errorf("image %d not a multiple of chunk %d", tb.ImageSize, tb.ChunkSize)
	}
}

// TestDefaultHypervisorDerived checks the QEMU-like defaults and the derived
// relations the migration loop relies on.
func TestDefaultHypervisorDerived(t *testing.T) {
	hv := DefaultHypervisor()
	tb := DefaultTestbed()
	if hv.MaxDowntime != 0.030 {
		t.Errorf("max downtime = %v, want 30 ms", hv.MaxDowntime)
	}
	if hv.MigrationSpeed != tb.NICBandwidth {
		t.Errorf("migration speed %v != NIC %v (the paper uncaps it)", hv.MigrationSpeed, tb.NICBandwidth)
	}
	if hv.MaxRounds <= 1 {
		t.Errorf("round cap %d cannot drive an iterative pre-copy", hv.MaxRounds)
	}
	if hv.BootedFootprint >= tb.RAM {
		t.Errorf("booted footprint %d exceeds RAM %d", hv.BootedFootprint, tb.RAM)
	}
	if tb.RAM%hv.MemPageSize != 0 {
		t.Errorf("RAM %d not a multiple of page size %d", tb.RAM, hv.MemPageSize)
	}
	if hv.CPUSteal < 0 || hv.CPUSteal >= 1 {
		t.Errorf("CPU steal %v out of [0,1)", hv.CPUSteal)
	}
}

// TestDefaultGuestCalibration checks the guest model reproduces the paper's
// no-migration maxima ordering: cache reads (1 GB/s) > buffered writes
// (266 MB/s) > disk (55 MB/s), with a dirty limit the cache region can hold.
func TestDefaultGuestCalibration(t *testing.T) {
	g := DefaultGuest()
	tb := DefaultTestbed()
	if g.CacheReadBandwidth != 1*GB || g.CacheWriteBandwidth != 266*MB {
		t.Errorf("cache bandwidths %v/%v, want 1 GB/s and 266 MB/s", g.CacheReadBandwidth, g.CacheWriteBandwidth)
	}
	if !(g.CacheReadBandwidth > g.CacheWriteBandwidth && g.CacheWriteBandwidth > tb.DiskBandwidth) {
		t.Error("calibration must order cache read > cache write > disk")
	}
	if g.DirtyLimit <= 0 || g.DirtyLimit >= g.CacheRegion {
		t.Errorf("dirty limit %d vs cache region %d", g.DirtyLimit, g.CacheRegion)
	}
	if g.WritebackBatch%g.CachePage != 0 {
		t.Errorf("writeback batch %d not page-aligned (%d)", g.WritebackBatch, g.CachePage)
	}
	if g.CacheRegion >= tb.RAM {
		t.Errorf("cache region %d exceeds guest RAM %d", g.CacheRegion, tb.RAM)
	}
}

func TestDefaultManagerAndRepository(t *testing.T) {
	m := DefaultManager()
	if m.Threshold == 0 {
		t.Error("zero threshold defers every written chunk")
	}
	if m.PushBatch <= 0 || m.PullBatch <= 0 {
		t.Errorf("batches %d/%d must be positive", m.PushBatch, m.PullBatch)
	}
	if m.BasePrefetch && m.BasePrefetchRate <= 0 {
		t.Error("prefetch enabled with no rate budget")
	}
	r := DefaultRepository()
	tb := DefaultTestbed()
	if r.StripeSize != tb.ChunkSize {
		t.Errorf("stripe %d != chunk %d: manager and repository must agree (Section 5.2.1)", r.StripeSize, tb.ChunkSize)
	}
}

// TestDefaultAsyncWRReconstruction verifies the documented reconstruction:
// 180 iterations of 10 MB must total the 1800 MB Section 5.4 fixes, at an
// I/O pressure of about 6 MB/s given the per-iteration compute time.
func TestDefaultAsyncWRReconstruction(t *testing.T) {
	p := DefaultAsyncWR()
	total := int64(p.Iterations) * p.DataPerIter
	if total != 1800*MB {
		t.Errorf("total data = %d, want 1800 MB", total)
	}
	rate := float64(p.DataPerIter) / p.ComputeTime
	if math.Abs(rate-6*MB) > 0.1*MB {
		t.Errorf("I/O pressure %.2f MB/s, want ~6 MB/s", rate/MB)
	}
	if p.WorkingSet <= 0 || p.MemoryDirtyRate <= 0 {
		t.Errorf("memory model degenerate: %d %v", p.WorkingSet, p.MemoryDirtyRate)
	}
}

func TestDefaultIORAndCM1(t *testing.T) {
	ior := DefaultIOR()
	if ior.Iterations != 10 || ior.FileSize != 1*GB || ior.BlockSize != 256*KB {
		t.Errorf("IOR defaults %+v diverge from Section 5.3", ior)
	}
	if ior.FileSize%ior.BlockSize != 0 {
		t.Errorf("file %d not a multiple of block %d", ior.FileSize, ior.BlockSize)
	}
	cm1 := DefaultCM1()
	if cm1.GridX*cm1.GridY != cm1.Procs {
		t.Errorf("grid %dx%d != %d ranks", cm1.GridX, cm1.GridY, cm1.Procs)
	}
	if cm1.Procs != 64 || cm1.OutputSize != 200*MB {
		t.Errorf("CM1 defaults %+v diverge from Section 5.5", cm1)
	}
}

func TestDefaultExperimentTiming(t *testing.T) {
	e := DefaultExperiment()
	if e.WarmupDelay != 100 {
		t.Errorf("warm-up = %v, want the paper's 100 s", e.WarmupDelay)
	}
	if e.SuccessiveGap != 60 {
		t.Errorf("successive gap = %v, want the paper's 60 s", e.SuccessiveGap)
	}
}

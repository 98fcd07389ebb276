// Package params centralizes the physical and benchmark constants of the
// reproduction. The defaults mirror the paper's testbed — the graphene
// cluster of Grid'5000 (Section 5.1) — and its benchmark configurations
// (Sections 5.3–5.5). Experiments copy and tweak these rather than inventing
// their own numbers, so every run is traceable to the paper.
package params

// Byte-size helpers.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// Testbed describes the hardware of a simulated compute node and the
// datacenter interconnect.
type Testbed struct {
	// NICBandwidth is the per-direction NIC throughput in bytes/s. The paper
	// measured 117.5 MB/s for TCP over Gigabit Ethernet.
	NICBandwidth float64
	// DiskBandwidth is the local disk throughput in bytes/s (~55 MB/s SATA II).
	DiskBandwidth float64
	// FabricBandwidth is the aggregate switch capacity (~8 GB/s, Cisco
	// Catalyst, Section 5.4).
	FabricBandwidth float64
	// NetLatency is the one-way network latency in seconds (~0.1 ms).
	NetLatency float64
	// DiskLatency is the per-request disk access latency in seconds (seek +
	// rotational average for the SATA disks; small because the workloads are
	// streaming).
	DiskLatency float64
	// RAM is the memory of a VM instance in bytes (4 GB in all experiments).
	RAM int64
	// ImageSize is the virtual disk image size in bytes (4 GB raw image).
	ImageSize int64
	// ChunkSize is the stripe/chunk size used by the migration manager and
	// the repository (256 KB, Section 5.2.1).
	ChunkSize int64
}

// DefaultTestbed returns the graphene-cluster constants from Section 5.1.
func DefaultTestbed() Testbed {
	return Testbed{
		NICBandwidth:    117.5 * MB,
		DiskBandwidth:   55 * MB,
		FabricBandwidth: 8 * GB,
		NetLatency:      0.0001,
		DiskLatency:     0.0005,
		RAM:             4 * GB,
		ImageSize:       4 * GB,
		ChunkSize:       256 * KB,
	}
}

// Hypervisor holds the QEMU/KVM-like migration parameters.
type Hypervisor struct {
	// MaxDowntime is the stop-and-copy budget (QEMU default 30 ms).
	MaxDowntime float64
	// MigrationSpeed caps the migration transfer rate in bytes/s. The paper
	// sets it to the full NIC bandwidth.
	MigrationSpeed float64
	// MaxRounds bounds pre-copy iterations; when exceeded the hypervisor
	// forces stop-and-copy (mirrors management-layer timeouts in practice).
	MaxRounds int
	// DeviceState is the size of the non-memory device state (hardware
	// buffers, CPU state) transferred during downtime.
	DeviceState int64
	// MemPageSize is the dirty-tracking granularity. QEMU tracks 4 KiB
	// pages; we track groups of pages to keep bitmaps small, which is
	// equivalent for bulk workloads.
	MemPageSize int64
	// BootedFootprint is the non-zero guest memory right after boot (kernel
	// + userland of the Debian guest). Zero pages are elided by the
	// hypervisor exactly as QEMU's is_dup_page does.
	BootedFootprint int64
	// CPUSteal is the fraction of guest CPU consumed by host-side migration
	// work (migration thread, storage manager transfers) while a migration
	// involving the VM is active.
	CPUSteal float64
}

// DefaultHypervisor returns QEMU 1.0-like defaults per Section 5.1.
func DefaultHypervisor() Hypervisor {
	return Hypervisor{
		MaxDowntime:     0.030,
		MigrationSpeed:  117.5 * MB,
		MaxRounds:       100,
		DeviceState:     2 * MB,
		MemPageSize:     256 * KB,
		BootedFootprint: 512 * MB,
		CPUSteal:        0.12,
	}
}

// Guest holds the guest-OS model parameters (page cache and filesystem).
// They are calibrated so the no-migration IOR maxima match the paper's
// measurements: 1 GB/s reads from cache, 266 MB/s buffered writes against a
// 55 MB/s disk (Section 5.3).
type Guest struct {
	// CacheReadBandwidth is the throughput of reads served from the page
	// cache (paper: ~1 GB/s for IOR-Read).
	CacheReadBandwidth float64
	// CacheWriteBandwidth is the rate at which the cache absorbs buffered
	// writes while below the dirty limit (paper: ~266 MB/s for IOR-Write).
	CacheWriteBandwidth float64
	// DirtyLimit is the maximum dirty page-cache data before writers are
	// throttled to the writeback drain rate (Linux dirty_ratio behaviour).
	DirtyLimit int64
	// WritebackBatch is the size of one background writeback submission.
	WritebackBatch int64
	// CachePage is the page-cache tracking granularity. Dirty state is kept
	// per cache page so rewriting a still-dirty page creates no extra
	// writeback work (Linux semantics).
	CachePage int64
	// CacheRegion is the guest RAM set aside for the page cache.
	CacheRegion int64
	// CommitInterval is the journal commit period (ext3 default 5 s).
	CommitInterval float64
	// JournalWrite is the size of one journal commit record.
	JournalWrite int64
	// MetadataEvery issues one inode-table/bitmap update per this many bytes
	// of data written; these land on a small set of hot chunks.
	MetadataEvery int64
}

// DefaultGuest returns the calibrated guest model.
func DefaultGuest() Guest {
	return Guest{
		CacheReadBandwidth:  1 * GB,
		CacheWriteBandwidth: 266 * MB,
		DirtyLimit:          384 * MB,
		WritebackBatch:      16 * MB,
		CachePage:           16 * KB,
		CacheRegion:         2560 * MB,
		CommitInterval:      5.0,
		JournalWrite:        256 * KB,
		MetadataEvery:       64 * MB,
	}
}

// Manager holds the migration manager (our approach) parameters.
type Manager struct {
	// Threshold is the write-count cutoff: a chunk written at least this
	// many times during migration is no longer pushed and waits for the
	// prioritized pull phase (Algorithm 1). The paper leaves the value
	// unstated; 3 is the repository default and the ablation bench sweeps it.
	Threshold uint32
	// PushBatch is the number of contiguous chunks streamed per push flow.
	PushBatch int
	// PullBatch is the number of chunks fetched per background pull request
	// (the paper pulls chunk by chunk; see Algorithm 3).
	PullBatch int
	// PullRequestLatency is the per-request service overhead of a pull:
	// FUSE round trip plus request handling at the source. Pulls are
	// request/response while pushes stream, which is what makes the push
	// phase cheaper per byte (Section 5.3's our-approach vs postcopy gap).
	PullRequestLatency float64
	// BasePrefetch enables prefetching hot base-image content on the
	// destination using hints from the source (Section 4.1).
	BasePrefetch bool
	// BasePrefetchRate caps base-image prefetch bandwidth so it does not
	// starve the source pulls (bytes/s).
	BasePrefetchRate float64
	// Preseeded marks the base image as already replicated on every
	// compute node's local storage: images start fully local and
	// migrations preseed the destination replica too, so neither boot
	// I/O nor migration ever touches the shared repository. This models
	// a deployment with pre-staged images; it is also what makes
	// migrations of distinct node pairs fully independent of each other
	// (the parallel scenario kernel shards on it).
	Preseeded bool
	// PullPriority orders the destination prefetch by decreasing write
	// count; disabling it (ablation) pulls in ascending chunk order.
	PullPriority bool
	// Dedup skips the body of pushed/pulled chunks whose content the
	// destination already holds (paper §6 future work; ablation only).
	Dedup bool
	// CompressionRatio scales transferred storage bytes (0 or 1 disables;
	// e.g. 0.6 sends 60% of the payload). Paper §6 / [24]; ablation only.
	CompressionRatio float64
	// CompressBW is the CPU compression throughput charged when compression
	// is on (bytes/s).
	CompressBW float64
}

// DefaultManager returns the default migration-manager tuning.
func DefaultManager() Manager {
	return Manager{
		Threshold:          3,
		PushBatch:          64,
		PullBatch:          1,
		PullRequestLatency: 0.008,
		BasePrefetch:       true,
		BasePrefetchRate:   40 * MB,
		PullPriority:       true,
	}
}

// Repository holds the BlobSeer-substitute parameters.
type Repository struct {
	// StripeSize is the striping unit (256 KB per Section 5.2.1).
	StripeSize int64
	// Replication is the number of copies of each stripe.
	Replication int
	// MetadataLatency models one metadata round trip (version lookup).
	MetadataLatency float64
}

// DefaultRepository returns the paper's repository configuration.
func DefaultRepository() Repository {
	return Repository{StripeSize: 256 * KB, Replication: 1, MetadataLatency: 0.0002}
}

// IOR holds the IOR benchmark configuration from Section 5.3.
type IOR struct {
	Iterations int   // 10
	FileSize   int64 // 1 GB
	BlockSize  int64 // 256 KB
}

// DefaultIOR returns the paper's IOR configuration.
func DefaultIOR() IOR {
	return IOR{Iterations: 10, FileSize: 1 * GB, BlockSize: 256 * KB}
}

// AsyncWR holds the AsyncWR benchmark configuration. Section 5.3 states 180
// iterations and ~6 MB/s of I/O pressure; Section 5.4 fixes the total data
// at 1800 MB. 180 iterations x 10 MB at one iteration per ~1.67 s satisfies
// both statements (see DESIGN.md §5).
type AsyncWR struct {
	Iterations  int
	DataPerIter int64
	ComputeTime float64 // seconds of pure CPU per iteration
	// MemoryDirtyRate is the rate at which the compute phase dirties guest
	// memory (random data generation + buffer copy).
	MemoryDirtyRate float64
	// WorkingSet is the memory region the compute phase touches.
	WorkingSet int64
}

// DefaultAsyncWR returns the reconstructed AsyncWR configuration.
func DefaultAsyncWR() AsyncWR {
	return AsyncWR{
		Iterations:      180,
		DataPerIter:     10 * MB,
		ComputeTime:     10.0 / 6.0,
		MemoryDirtyRate: 24 * MB,
		WorkingSet:      64 * MB,
	}
}

// Rewrite holds the configuration of the hot/cold rewrite workload: a file
// whose leading HotBytes are rewritten every iteration (chunks the
// write-count threshold defers) followed by one pass over the rest (chunks
// the push phase drains), with a think pause between iterations. It is not a
// paper benchmark — it is the minimal workload that exercises every branch of
// the hybrid scheme, which is why the quickstart scenario uses it.
type Rewrite struct {
	FileSize   int64
	HotBytes   int64 // leading region rewritten every iteration
	Iterations int
	Interval   float64 // think time between iterations, seconds
}

// DefaultRewrite returns a small-scale rewrite configuration (64 MB file,
// 32 MB hot region) suitable for SmallConfig testbeds.
func DefaultRewrite() Rewrite {
	return Rewrite{
		FileSize:   64 * MB,
		HotBytes:   32 * MB,
		Iterations: 16,
		Interval:   0.5,
	}
}

// CM1 holds the CM1 application configuration from Section 5.5.
type CM1 struct {
	Procs           int     // 64 MPI ranks (8x8 grid)
	GridX, GridY    int     // process grid
	Intervals       int     // output intervals simulated
	ComputePerIntvl float64 // ~40 s of computation per output interval
	OutputSize      int64   // ~200 MB dumped per process per interval
	HaloBytes       int64   // halo exchange volume per neighbor per interval
	// MemoryDirtyRate is the stencil update rate over the working set.
	MemoryDirtyRate float64
	WorkingSet      int64
}

// DefaultCM1 returns the paper's CM1 configuration.
func DefaultCM1() CM1 {
	return CM1{
		Procs:           64,
		GridX:           8,
		GridY:           8,
		Intervals:       10,
		ComputePerIntvl: 40,
		OutputSize:      200 * MB,
		HaloBytes:       4 * MB,
		MemoryDirtyRate: 100 * MB,
		WorkingSet:      800 * MB,
	}
}

// Experiment bundles the per-run timing constants shared by Section 5
// scenarios.
type Experiment struct {
	// WarmupDelay is the delay before the (first) migration is initiated
	// (100 s in Sections 5.3 and 5.4).
	WarmupDelay float64
	// SuccessiveGap is the delay between successive migrations in the CM1
	// experiment (60 s, Section 5.5).
	SuccessiveGap float64
}

// DefaultExperiment returns the paper's scenario timing.
func DefaultExperiment() Experiment {
	return Experiment{WarmupDelay: 100, SuccessiveGap: 60}
}

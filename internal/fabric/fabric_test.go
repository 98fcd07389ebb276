package fabric

import (
	"math"
	"testing"

	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

func testbed() params.Testbed {
	p := params.DefaultTestbed()
	// Small round numbers for easy assertions.
	p.NICBandwidth = 100
	p.DiskBandwidth = 50
	p.FabricBandwidth = 1000
	p.NetLatency = 0
	p.DiskLatency = 0
	return p
}

func TestTransferBottleneckedByNIC(t *testing.T) {
	eng := sim.New()
	c := NewCluster(eng, 3, testbed())
	var doneAt sim.Time
	eng.Go("x", func(p *sim.Proc) {
		c.Transfer(p, c.Nodes[0], c.Nodes[1], 500, flow.TagMemory)
		doneAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(doneAt, 5, 1e-9) {
		t.Fatalf("doneAt = %v, want 5 (NIC 100 B/s)", doneAt)
	}
}

func TestLoopbackIsFree(t *testing.T) {
	eng := sim.New()
	c := NewCluster(eng, 2, testbed())
	var doneAt sim.Time
	eng.Go("x", func(p *sim.Proc) {
		c.Transfer(p, c.Nodes[0], c.Nodes[0], 1e9, flow.TagControl)
		doneAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 0 {
		t.Fatalf("loopback took %v, want 0", doneAt)
	}
}

func TestRemoteReadDiskBottleneck(t *testing.T) {
	eng := sim.New()
	c := NewCluster(eng, 2, testbed())
	var doneAt sim.Time
	eng.Go("x", func(p *sim.Proc) {
		c.Net.Transfer(p, c.RemoteReadPath(c.Nodes[1], c.Nodes[0]), 500, flow.TagRepo)
		doneAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Disk at 50 B/s is the bottleneck: 10s.
	if !near(doneAt, 10, 1e-9) {
		t.Fatalf("doneAt = %v, want 10 (disk-bound)", doneAt)
	}
}

func TestDiskContentionBetweenGuestAndMigration(t *testing.T) {
	// Guest I/O and a disk-to-disk stream share one disk: each gets half.
	eng := sim.New()
	c := NewCluster(eng, 2, testbed())
	src, dst := c.Nodes[0], c.Nodes[1]
	stream := []*flow.Link{src.Disk, src.NICOut, c.Fabric, dst.NICIn, dst.Disk}
	var tGuest, tStream sim.Time
	eng.Go("guest", func(p *sim.Proc) {
		c.DiskIO(p, c.Nodes[0], 100, flow.TagOther)
		tGuest = p.Now()
	})
	eng.Go("stream", func(p *sim.Proc) {
		c.Net.Transfer(p, stream, 100, flow.TagStoragePush)
		tStream = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Both flows share disk0 (50 B/s) -> 25 B/s each -> 4s.
	if !near(tGuest, 4, 1e-9) || !near(tStream, 4, 1e-9) {
		t.Fatalf("tGuest=%v tStream=%v, want 4,4", tGuest, tStream)
	}
}

func TestFabricAggregateLimit(t *testing.T) {
	p := testbed()
	p.FabricBandwidth = 150 // less than 2 NIC pairs
	eng := sim.New()
	c := NewCluster(eng, 4, p)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		eng.Go("x", func(pr *sim.Proc) {
			c.Transfer(pr, c.Nodes[i*2], c.Nodes[i*2+1], 150, flow.TagMemory)
			done[i] = pr.Now()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Fabric 150 shared by 2 flows -> 75 each -> 2s.
	for i, d := range done {
		if !near(d, 2, 1e-9) {
			t.Fatalf("flow %d done at %v, want 2", i, d)
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	p := testbed()
	p.NetLatency = 0.5
	eng := sim.New()
	c := NewCluster(eng, 2, p)
	var doneAt sim.Time
	eng.Go("x", func(pr *sim.Proc) {
		c.Transfer(pr, c.Nodes[0], c.Nodes[1], 100, flow.TagControl)
		doneAt = pr.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(doneAt, 1.5, 1e-9) {
		t.Fatalf("doneAt = %v, want 1.5 (0.5 latency + 1s transfer)", doneAt)
	}
}

func TestTrafficAccounting(t *testing.T) {
	eng := sim.New()
	c := NewCluster(eng, 2, testbed())
	eng.Go("x", func(p *sim.Proc) {
		c.Transfer(p, c.Nodes[0], c.Nodes[1], 300, flow.TagMemory)
		c.Transfer(p, c.Nodes[0], c.Nodes[1], 200, flow.TagStoragePush)
		c.DiskIO(p, c.Nodes[0], 999, flow.TagOther)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Net.BytesByTag(flow.TagMemory); !near(got, 300, 1e-9) {
		t.Fatalf("memory bytes = %v", got)
	}
	if got := c.Net.BytesByTag(flow.TagStoragePush); !near(got, 200, 1e-9) {
		t.Fatalf("push bytes = %v", got)
	}
	// Fabric carried only the network transfers, not the disk I/O.
	if got := c.Fabric.Bytes(); !near(got, 500, 1e-9) {
		t.Fatalf("fabric bytes = %v, want 500", got)
	}
}

func TestDefaultTestbedConstants(t *testing.T) {
	p := params.DefaultTestbed()
	if p.NICBandwidth != 117.5*params.MB {
		t.Fatal("NIC bandwidth is not the paper's 117.5 MB/s")
	}
	if p.DiskBandwidth != 55*params.MB {
		t.Fatal("disk bandwidth is not the paper's 55 MB/s")
	}
	if p.ChunkSize != 256*params.KB {
		t.Fatal("chunk size is not the paper's 256 KB")
	}
}

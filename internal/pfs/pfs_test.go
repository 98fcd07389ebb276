package pfs

import (
	"math"
	"testing"

	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

func testFS(nServers int) (*sim.Engine, *fabric.Cluster, *FS) {
	eng := sim.New()
	tb := params.DefaultTestbed()
	tb.NICBandwidth = 100
	tb.DiskBandwidth = 50
	tb.FabricBandwidth = 10000
	tb.NetLatency = 0
	tb.DiskLatency = 0
	c := fabric.NewCluster(eng, nServers+2, tb)
	fs := NewFS(c, c.Nodes[:nServers], Params{StripeSize: 100})
	return eng, c, fs
}

func TestCreateOpen(t *testing.T) {
	_, _, fs := testFS(2)
	f := fs.Create("disk.qcow2", 950)
	if first, last := f.span(0, f.Size); first != 0 || last != 9 {
		t.Fatalf("stripes = [%d, %d], want [0, 9]", first, last)
	}
	if fs.Open("disk.qcow2") != f {
		t.Fatal("Open did not find file")
	}
	if fs.Open("missing") != nil {
		t.Fatal("Open invented a file")
	}
}

func TestReadTiming(t *testing.T) {
	// 400 bytes striped over 2 servers (200 each): each server flow is
	// disk-bound at 50 B/s -> both finish at 4s; client NIC 100 not limiting.
	eng, c, fs := testFS(2)
	f := fs.Create("f", 400)
	client := c.Nodes[3]
	var doneAt sim.Time
	eng.Go("r", func(p *sim.Proc) {
		f.Read(p, client, 0, 400)
		doneAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(doneAt-4) > 1e-6 {
		t.Fatalf("doneAt = %v, want 4", doneAt)
	}
	if fs.ReadBytes() != 400 {
		t.Fatalf("read bytes = %v", fs.ReadBytes())
	}
}

func TestPartialStripeAccounting(t *testing.T) {
	eng, c, fs := testFS(2)
	f := fs.Create("f", 1000)
	client := c.Nodes[3]
	eng.Go("w", func(p *sim.Proc) {
		f.Write(p, client, 150, 100) // 50 bytes in stripe 1, 50 in stripe 2
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.WriteBytes() != 100 {
		t.Fatalf("write bytes = %v, want exactly the addressed 100", fs.WriteBytes())
	}
}

func TestEveryIOCrossesNetwork(t *testing.T) {
	// The essence of pvfs-shared: even small writes generate network traffic.
	eng, c, fs := testFS(2)
	f := fs.Create("f", 1000)
	client := c.Nodes[3]
	eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			f.Write(p, client, int64(i*100), 100)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	fabricBytes := c.Fabric.Bytes()
	if math.Abs(fabricBytes-1000) > 1e-6 {
		t.Fatalf("fabric bytes = %v, want 1000", fabricBytes)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	_, _, fs := testFS(1)
	f := fs.Create("f", 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.span(50, 100)
}

// TestRequestAllocs pins a warmed request at zero allocations: its flows
// come from the net's pool, its paths from the per-client cache and the
// request itself from the fan-out's free list. A write to stripes no
// earlier write touched allocates nothing either: a file keeps no
// per-stripe state.
func TestRequestAllocs(t *testing.T) {
	const page = 512 * 100 // 512 stripes of 100 bytes
	fresh := int64(0)
	for _, tc := range []struct {
		name string
		req  func(p *sim.Proc, f *File, client *fabric.Node)
	}{
		{"write", func(p *sim.Proc, f *File, client *fabric.Node) { f.Write(p, client, 150, 400) }},
		{"read", func(p *sim.Proc, f *File, client *fabric.Node) { f.Read(p, client, 150, 400) }},
		{"first-touch write", func(p *sim.Proc, f *File, client *fabric.Node) {
			f.Write(p, client, fresh*page, 400)
			fresh++
		}},
	} {
		eng, c, fs := testFS(3)
		f, client := fs.Create("f", 128*page), c.Nodes[4]
		a := requestAllocs(t, eng, func(p *sim.Proc) { tc.req(p, f, client) })
		eng.Stop()
		if a != 0 {
			t.Errorf("%s: %v allocations per request, want 0", tc.name, a)
		}
	}
}

// requestAllocs runs req in a loop in one process and returns the
// allocations per request after a warm-up.
func requestAllocs(t *testing.T, eng *sim.Engine, req func(p *sim.Proc)) float64 {
	t.Helper()
	done := 0
	eng.Go("client", func(p *sim.Proc) {
		for {
			req(p)
			done++
		}
	})
	one := func() {
		for want := done + 1; done < want; {
			if !eng.Step() {
				t.Fatal("engine ran dry")
			}
		}
	}
	for i := 0; i < 4; i++ {
		one()
	}
	return testing.AllocsPerRun(50, one)
}

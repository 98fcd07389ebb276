package pfs

import (
	"math"
	"testing"

	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
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
	fs := NewFS(c, c.Nodes[:nServers], params.Repository{StripeSize: 100}, flow.TagPFS)
	return eng, c, fs
}

// serverBytes returns the bytes that crossed each server's disk.
func serverBytes(fs *FS) []float64 {
	out := make([]float64, len(fs.Servers))
	for i, s := range fs.Servers {
		out[i] = s.Disk.Bytes()
	}
	return out
}

// TestCreateOpen checks a created file's stripe span and that its name
// stays taken: creating it again panics.
func TestCreateOpen(t *testing.T) {
	_, _, fs := testFS(2)
	f := fs.Create("disk.qcow2", 950)
	if first, last := f.span(0, f.Size); first != 0 || last != 9 {
		t.Fatalf("stripes = [%d, %d], want [0, 9]", first, last)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("recreating a file did not panic")
		}
	}()
	fs.Create("disk.qcow2", 950)
}

func TestCreateGeometry(t *testing.T) {
	_, _, fs := testFS(4)
	f := fs.Create("f", 950)
	if first, last := f.span(0, f.Size); first != 0 || last != 9 {
		t.Fatalf("stripes = [%d, %d], want [0, 9]", first, last)
	}
	if f.stripeLen(9) != 50 {
		t.Fatalf("last stripe len = %d, want 50", f.stripeLen(9))
	}
}

// TestPlacementTable pins the placement formula: stripe i on server i mod
// N. Stripe i is read whole i+1 times, so each server's total names the
// stripes it holds.
func TestPlacementTable(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		eng, c, fs := testFS(n)
		f := fs.Create("f", 100*17)
		want := make([]float64, n)
		for i := 0; i < 17; i++ {
			for range i + 1 {
				f.ReadAsync(c.Nodes[n+1], int64(i)*100, 100, 0, nil)
			}
			want[i%n] += float64(100 * (i + 1))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for s, got := range serverBytes(fs) {
			if math.Abs(got-want[s]) > 1e-6 {
				t.Fatalf("N=%d: server %d served %v bytes, want %v", n, s, got, want[s])
			}
		}
	}
}

func TestReadSpreadsAcrossServers(t *testing.T) {
	eng, c, fs := testFS(4)
	f := fs.Create("f", 4000) // 40 stripes over 4 servers
	client := c.Nodes[5]
	eng.Go("reader", func(p *sim.Proc) {
		f.Read(p, client, 0, 4000)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.ReadBytes() != 4000 {
		t.Fatalf("read bytes = %v, want 4000", fs.ReadBytes())
	}
	for i, v := range serverBytes(fs) {
		if math.Abs(v-1000) > 1e-6 {
			t.Fatalf("server %d served %v bytes, want 1000 (balanced)", i, v)
		}
	}
}

func TestStripedReadFasterThanSingleServer(t *testing.T) {
	// 4 servers with 50 B/s disks, client NIC 100 B/s: a 4000-byte read
	// striped over 4 servers is bottlenecked by the client NIC (100),
	// finishing in ~40s, while a single disk would need 80s.
	eng, c, fs := testFS(4)
	f := fs.Create("f", 4000)
	client := c.Nodes[5]
	var doneAt sim.Time
	eng.Go("reader", func(p *sim.Proc) {
		f.Read(p, client, 0, 4000)
		doneAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt > 45 {
		t.Fatalf("striped read took %v, want ~40 (NIC-bound, not disk-bound)", doneAt)
	}
}

func TestConcurrentClientsBalance(t *testing.T) {
	eng, c, fs := testFS(4)
	f := fs.Create("f", 2000)
	done := 0
	for i := 0; i < 2; i++ {
		client := c.Nodes[4+i]
		eng.Go("reader", func(p *sim.Proc) {
			f.Read(p, client, 0, 2000)
			done++
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	total := 0.0
	for i, v := range serverBytes(fs) {
		if math.Abs(v-1000) > 1e-6 {
			t.Fatalf("server %d served %v, want 1000", i, v)
		}
		total += v
	}
	if math.Abs(total-4000) > 1e-6 {
		t.Fatalf("total served = %v, want 4000", total)
	}
}

func TestReadAsyncCompletes(t *testing.T) {
	eng, c, fs := testFS(4)
	f := fs.Create("f", 1000)
	client := c.Nodes[5]
	doneAt := sim.Time(-1)
	f.ReadAsync(client, 0, 1000, 0, func() { doneAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt < 0 {
		t.Fatal("ReadAsync never completed")
	}
	if fs.ReadBytes() != 1000 {
		t.Fatalf("read bytes = %v", fs.ReadBytes())
	}
}

// TestReadAsyncRateCap pins the cap to each server's flow: a one-stripe
// read from one server takes the capped time, and a four-stripe read from
// four servers takes the same time, not four times it.
func TestReadAsyncRateCap(t *testing.T) {
	for _, n := range []int{1, 4} {
		eng, c, fs := testFS(n)
		size := 100 * int64(n)
		f := fs.Create("f", size)
		var doneAt sim.Time
		f.ReadAsync(c.Nodes[n+1], 0, size, 10, func() { doneAt = eng.Now() })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if math.Abs(doneAt-10) > 1e-6 {
			t.Fatalf("%d servers: capped read finished at %v, want 10", n, doneAt)
		}
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

// TestSmallFileReadAllocs pins a warmed read of a file smaller than a
// page, spanning stripes on all three servers, at zero allocations.
func TestSmallFileReadAllocs(t *testing.T) {
	eng, c, fs := testFS(3)
	f, client := fs.Create("f", 1000), c.Nodes[4]
	a := requestAllocs(t, eng, func(p *sim.Proc) { f.Read(p, client, 150, 400) })
	eng.Stop()
	if a != 0 {
		t.Errorf("read: %v allocations per request, want 0", a)
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

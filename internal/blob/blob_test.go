package blob

import (
	"math"
	"testing"

	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

func testStore(nServers int) (*sim.Engine, *fabric.Cluster, *Store) {
	eng := sim.New()
	tb := params.DefaultTestbed()
	tb.NICBandwidth = 100
	tb.DiskBandwidth = 50
	tb.FabricBandwidth = 10000
	tb.NetLatency = 0
	tb.DiskLatency = 0
	c := fabric.NewCluster(eng, nServers+2, tb)
	rp := params.Repository{StripeSize: 100, MetadataLatency: 0}
	st := NewStore(c, c.Nodes[:nServers], rp)
	return eng, c, st
}

func TestCreateGeometry(t *testing.T) {
	_, _, st := testStore(4)
	b := st.Create(950)
	if first, last := b.stripeSpan(0, b.Size); first != 0 || last != 9 {
		t.Fatalf("stripes = [%d, %d], want [0, 9]", first, last)
	}
	if b.stripeLen(9) != 50 {
		t.Fatalf("last stripe len = %d, want 50", b.stripeLen(9))
	}
}

// TestPlacementTable pins the formula placement to the per-stripe table
// Create once built: stripe i on server i mod N. A read serves whole
// stripes; stripe i is read i+1 times, so each server's total names the
// stripes it holds.
func TestPlacementTable(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		eng, c, st := testStore(n)
		b := st.Create(100 * 17)
		want := make([]float64, n)
		for i := 0; i < 17; i++ {
			for range i + 1 {
				b.ReadRangeAsync(c.Nodes[n+1], int64(i)*100+50, 1, 0, nil)
			}
			want[i%n] += float64(100 * (i + 1))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for s, got := range st.ServerBytes() {
			if got != want[s] {
				t.Fatalf("N=%d: server %d served %v bytes, want %v", n, s, got, want[s])
			}
		}
	}
}

func TestReadSpreadsAcrossServers(t *testing.T) {
	eng, c, st := testStore(4)
	b := st.Create(4000) // 40 stripes over 4 servers
	client := c.Nodes[5]
	eng.Go("reader", func(p *sim.Proc) {
		b.ReadRange(p, client, 0, 4000)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Reads() != 4 || st.ReadBytes() != 4000 {
		t.Fatalf("accounting: reads=%d bytes=%v, want one read per server and 4000 bytes", st.Reads(), st.ReadBytes())
	}
	per := st.ServerBytes()
	for i, v := range per {
		if v != 1000 {
			t.Fatalf("server %d served %v bytes, want 1000 (balanced)", i, v)
		}
	}
}

func TestStripedReadFasterThanSingleServer(t *testing.T) {
	// 4 servers with 50 B/s disks, client NIC 100 B/s: a 4000-byte read
	// striped over 4 servers is bottlenecked by the client NIC (100),
	// finishing in ~40s, while a single disk would need 80s.
	eng, c, st := testStore(4)
	b := st.Create(4000)
	client := c.Nodes[5]
	var doneAt sim.Time
	eng.Go("reader", func(p *sim.Proc) {
		b.ReadRange(p, client, 0, 4000)
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
	eng, c, st := testStore(4)
	b := st.Create(2000)
	done := 0
	for i := 0; i < 2; i++ {
		client := c.Nodes[4+i]
		eng.Go("reader", func(p *sim.Proc) {
			b.ReadRange(p, client, 0, 2000)
			done++
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	per := st.ServerBytes()
	total := 0.0
	for _, v := range per {
		total += v
	}
	if total != 4000 {
		t.Fatalf("total served = %v, want 4000", total)
	}
	for i, v := range per {
		if math.Abs(v-1000) > 1e-9 {
			t.Fatalf("server %d served %v, want 1000", i, v)
		}
	}
}

func TestReadAsyncCompletes(t *testing.T) {
	eng, c, st := testStore(4)
	b := st.Create(1000)
	client := c.Nodes[5]
	doneAt := sim.Time(-1)
	b.ReadRangeAsync(client, 0, 1000, 0, func() { doneAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt < 0 {
		t.Fatal("ReadRangeAsync never completed")
	}
	if st.ReadBytes() != 1000 {
		t.Fatalf("read bytes = %v", st.ReadBytes())
	}
}

func TestReadAsyncRateCap(t *testing.T) {
	eng, c, st := testStore(1)
	b := st.Create(100) // single stripe, single server
	client := c.Nodes[2]
	var doneAt sim.Time
	b.ReadRangeAsync(client, 0, 100, 10, func() { doneAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(doneAt-10) > 1e-6 {
		t.Fatalf("capped prefetch finished at %v, want 10", doneAt)
	}
}

// TestRequestAllocs pins a warmed read at zero allocations: its flows come
// from the net's pool, its paths from the per-client cache and the request
// itself from the fan-out's free list.
func TestRequestAllocs(t *testing.T) {
	eng, c, st := testStore(3)
	b, client := st.Create(1000), c.Nodes[4]
	a := requestAllocs(t, eng, func(p *sim.Proc) { b.ReadRange(p, client, 150, 400) })
	eng.Stop()
	if a != 0 {
		t.Errorf("read range: %v allocations per request, want 0", a)
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

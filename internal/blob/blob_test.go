package blob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

func testStore(nServers int, repl int) (*sim.Engine, *fabric.Cluster, *Store) {
	eng := sim.New()
	tb := params.DefaultTestbed()
	tb.NICBandwidth = 100
	tb.DiskBandwidth = 50
	tb.FabricBandwidth = 10000
	tb.NetLatency = 0
	tb.DiskLatency = 0
	c := fabric.NewCluster(eng, nServers+2, tb)
	rp := params.Repository{StripeSize: 100, Replication: repl, MetadataLatency: 0}
	st := NewStore(c, c.Nodes[:nServers], rp)
	return eng, c, st
}

func TestCreateGeometry(t *testing.T) {
	_, _, st := testStore(4, 1)
	b := st.Create(950)
	if b.Stripes() != 10 {
		t.Fatalf("stripes = %d, want 10", b.Stripes())
	}
	if b.stripeLen(9) != 50 {
		t.Fatalf("last stripe len = %d, want 50", b.stripeLen(9))
	}
	for i := 0; i < 10; i++ {
		if b.ContentAt(i) != 0 {
			t.Fatal("fresh blob has nonzero content")
		}
	}
}

// TestPlacementTable pins the formula placement to the per-stripe table
// Create once built: replica r of stripe i on server (i+r) mod N, reads
// picking replica (i+round) mod R, writes going to replica 0.
func TestPlacementTable(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		for _, repl := range []int{1, 2, 3} {
			_, _, st := testStore(n, repl)
			b := st.Create(100 * 17)
			r := min(repl, n) // NewStore clamps replication to the server count
			for i := 0; i < b.Stripes(); i++ {
				table := make([]int, r)
				for k := range table {
					table[k] = (i + k) % n
				}
				for k, want := range table {
					if got := b.replicaServer(i, k); got != want {
						t.Fatalf("N=%d R=%d: replica %d of stripe %d on %d, want %d", n, repl, k, i, got, want)
					}
				}
				for round := 0; round < 2*r+1; round++ {
					if got, want := b.stripeServer(i, round), table[(i+round)%r]; got != want {
						t.Fatalf("N=%d R=%d: stripe %d round %d read from %d, want %d", n, repl, i, round, got, want)
					}
				}
			}
		}
	}
}

// TestPutBase: an installed base reads first+i on every stripe, advances
// the version, and a later write overrides only the stripes it covers.
func TestPutBase(t *testing.T) {
	eng, c, st := testStore(4, 1)
	b := st.Create(400)
	b.PutBase(1000)
	if b.Version() != 1 {
		t.Fatalf("version = %d after PutBase, want 1", b.Version())
	}
	for i := 0; i < b.Stripes(); i++ {
		if got := b.ContentAt(i); got != ContentID(1000+i) {
			t.Fatalf("stripe %d = %d, want %d", i, got, 1000+i)
		}
	}
	eng.Go("writer", func(p *sim.Proc) {
		b.Write(p, c.Nodes[5], 2, []ContentID{7})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []ContentID{1000, 1001, 7, 1003} {
		if got := b.ContentAt(i); got != want {
			t.Fatalf("after write: stripe %d = %d, want %d", i, got, want)
		}
	}
}

func TestReadReturnsContent(t *testing.T) {
	eng, c, st := testStore(4, 1)
	b := st.Create(400)
	b.PutBase(10)
	client := c.Nodes[5]
	var got []ContentID
	eng.Go("reader", func(p *sim.Proc) {
		got = b.Read(p, client, 1, 2)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Fatalf("got %v", got)
	}
	if st.Reads() == 0 || st.ReadBytes() != 200 {
		t.Fatalf("accounting: reads=%d bytes=%v", st.Reads(), st.ReadBytes())
	}
}

func TestReadSpreadsAcrossServers(t *testing.T) {
	eng, c, st := testStore(4, 1)
	b := st.Create(4000) // 40 stripes over 4 servers
	client := c.Nodes[5]
	eng.Go("reader", func(p *sim.Proc) {
		b.Read(p, client, 0, 40)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
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
	eng, c, st := testStore(4, 1)
	b := st.Create(4000)
	client := c.Nodes[5]
	var doneAt sim.Time
	eng.Go("reader", func(p *sim.Proc) {
		b.Read(p, client, 0, 40)
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
	eng, c, st := testStore(4, 1)
	b := st.Create(2000)
	done := 0
	for i := 0; i < 2; i++ {
		client := c.Nodes[4+i]
		eng.Go("reader", func(p *sim.Proc) {
			b.Read(p, client, 0, 20)
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

func TestReplicatedReadsRotateReplicas(t *testing.T) {
	eng, c, st := testStore(4, 2)
	b := st.Create(400) // 4 stripes, each on 2 servers
	client := c.Nodes[5]
	eng.Go("reader", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			b.Read(p, client, 0, 4)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// With rotation, every server should have served something.
	for i, v := range st.ServerBytes() {
		if v == 0 {
			t.Fatalf("server %d never used despite replication", i)
		}
	}
}

func TestWriteAdvancesVersion(t *testing.T) {
	eng, c, st := testStore(4, 1)
	b := st.Create(400)
	client := c.Nodes[5]
	v0 := b.Version()
	eng.Go("writer", func(p *sim.Proc) {
		b.Write(p, client, 1, []ContentID{7, 8})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Version() != v0+1 {
		t.Fatalf("version = %d, want %d", b.Version(), v0+1)
	}
	want := []ContentID{0, 7, 8, 0}
	for i, w := range want {
		if b.ContentAt(i) != w {
			t.Fatalf("content[%d] = %d, want %d", i, b.ContentAt(i), w)
		}
	}
}

func TestReadAsyncCompletes(t *testing.T) {
	eng, c, st := testStore(4, 1)
	b := st.Create(1000)
	client := c.Nodes[5]
	doneAt := sim.Time(-1)
	b.ReadAsync(client, 0, 10, 0, func() { doneAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt < 0 {
		t.Fatal("ReadAsync never completed")
	}
	if st.ReadBytes() != 1000 {
		t.Fatalf("read bytes = %v", st.ReadBytes())
	}
}

func TestReadAsyncRateCap(t *testing.T) {
	eng, c, st := testStore(1, 1)
	b := st.Create(100) // single stripe, single server
	client := c.Nodes[2]
	var doneAt sim.Time
	b.ReadAsync(client, 0, 1, 10, func() { doneAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(doneAt-10) > 1e-6 {
		t.Fatalf("capped prefetch finished at %v, want 10", doneAt)
	}
}

// TestReadWriteProperty: arbitrary write sequences produce the content map a
// reference model predicts.
func TestReadWriteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng, c, st := testStore(3, 1)
		n := 5 + rng.Intn(20)
		b := st.Create(int64(n) * 100)
		ref := make([]ContentID, n)
		client := c.Nodes[4]
		ok := true
		eng.Go("driver", func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				first := rng.Intn(n)
				count := 1 + rng.Intn(n-first)
				if rng.Intn(2) == 0 {
					ids := make([]ContentID, count)
					for j := range ids {
						ids[j] = ContentID(rng.Uint64())
						ref[first+j] = ids[j]
					}
					b.Write(p, client, first, ids)
				} else {
					got := b.Read(p, client, first, count)
					for j := range got {
						if got[j] != ref[first+j] {
							ok = false
						}
					}
				}
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestAllocs pins a warmed request's allocations: its flows come
// from the net's pool, its paths from the per-client cache and the request
// itself from the fan-out's free list, so only Read's returned content IDs
// are allocated.
func TestRequestAllocs(t *testing.T) {
	ids := []ContentID{7, 8, 9, 10}
	for _, tc := range []struct {
		name string
		req  func(p *sim.Proc, b *Blob, client *fabric.Node)
		want float64
	}{
		{"write", func(p *sim.Proc, b *Blob, client *fabric.Node) { b.Write(p, client, 1, ids) }, 0},
		{"read range", func(p *sim.Proc, b *Blob, client *fabric.Node) { b.ReadRange(p, client, 150, 400) }, 0},
		{"read", func(p *sim.Proc, b *Blob, client *fabric.Node) { b.Read(p, client, 1, 4) }, 1},
	} {
		eng, c, st := testStore(3, 2)
		b, client := st.Create(1000), c.Nodes[4]
		a := requestAllocs(t, eng, func(p *sim.Proc) { tc.req(p, b, client) })
		eng.Stop()
		if a != tc.want {
			t.Errorf("%s: %v allocations per request, want %v", tc.name, a, tc.want)
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

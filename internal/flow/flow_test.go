package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hybridmig/hybridmig/internal/sim"
)

const tol = 1e-6

func near(a, b float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleFlowSingleLink(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100) // 100 B/s
	var doneAt sim.Time
	f := &Flow{Links: []*Link{l}, Size: 500, Tag: TagMemory, OnDone: func() { doneAt = e.Now() }}
	n.Start(f)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(doneAt, 5) {
		t.Fatalf("doneAt = %v, want 5", doneAt)
	}
	if !near(l.Bytes(), 500) {
		t.Fatalf("link bytes = %v, want 500", l.Bytes())
	}
	if !near(n.BytesByTag(TagMemory), 500) {
		t.Fatalf("tag bytes = %v, want 500", n.BytesByTag(TagMemory))
	}
}

func TestFairShareTwoFlows(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	var t1, t2 sim.Time
	n.Start(&Flow{Links: []*Link{l}, Size: 100, OnDone: func() { t1 = e.Now() }})
	n.Start(&Flow{Links: []*Link{l}, Size: 100, OnDone: func() { t2 = e.Now() }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share 50 B/s, finish together at t=2.
	if !near(t1, 2) || !near(t2, 2) {
		t.Fatalf("t1=%v t2=%v, want 2,2", t1, t2)
	}
}

func TestFairShareStaggered(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	var t1, t2 sim.Time
	n.Start(&Flow{Links: []*Link{l}, Size: 100, OnDone: func() { t1 = e.Now() }})
	e.At(0.5, func() {
		n.Start(&Flow{Links: []*Link{l}, Size: 100, OnDone: func() { t2 = e.Now() }})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Flow1: 50B alone in 0.5s, then 50B at 50B/s -> done at 1.5.
	// Flow2: 50B at 50B/s until 1.5 (50 left... it has 100, transfers 50 by 1.5),
	// then alone at 100B/s for remaining 50B -> done at 2.0.
	if !near(t1, 1.5) {
		t.Fatalf("t1 = %v, want 1.5", t1)
	}
	if !near(t2, 2.0) {
		t.Fatalf("t2 = %v, want 2.0", t2)
	}
}

func TestBottleneckMaxMin(t *testing.T) {
	// Classic max-min scenario: links A(cap 100) and B(cap 30).
	// Flow1 crosses A only; Flow2 crosses A and B.
	// Max-min: flow2 limited by B at 30, flow1 gets A's residual 70.
	e := sim.New()
	n := NewNet(e)
	la := NewLink("A", 100)
	lb := NewLink("B", 30)
	f1 := &Flow{Links: []*Link{la}, Size: 1e9}
	f2 := &Flow{Links: []*Link{la, lb}, Size: 1e9}
	n.Start(f1)
	n.Start(f2)
	if !near(f2.Rate(), 30) {
		t.Fatalf("f2 rate = %v, want 30", f2.Rate())
	}
	if !near(f1.Rate(), 70) {
		t.Fatalf("f1 rate = %v, want 70", f1.Rate())
	}
	e.Stop()
	e.Shutdown()
}

func TestPerFlowCap(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	f1 := &Flow{Links: []*Link{l}, Size: 1e9, MaxRate: 10}
	f2 := &Flow{Links: []*Link{l}, Size: 1e9}
	n.Start(f1)
	n.Start(f2)
	if !near(f1.Rate(), 10) {
		t.Fatalf("capped flow rate = %v, want 10", f1.Rate())
	}
	if !near(f2.Rate(), 90) {
		t.Fatalf("uncapped flow rate = %v, want 90 (residual)", f2.Rate())
	}
	e.Stop()
}

func TestCapOnlyFlowNoLinks(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	var doneAt sim.Time
	n.Start(&Flow{Size: 100, MaxRate: 10, OnDone: func() { doneAt = e.Now() }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(doneAt, 10) {
		t.Fatalf("doneAt = %v, want 10", doneAt)
	}
}

func TestZeroSizeCompletesImmediately(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	done := false
	n.Start(&Flow{Links: []*Link{l}, Size: 0, OnDone: func() { done = true }})
	if !done {
		t.Fatal("zero-size flow did not complete synchronously")
	}
}

func TestNoLinksNoCapInstant(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	done := false
	n.Start(&Flow{Size: 1e6, OnDone: func() { done = true }})
	if !done {
		t.Fatal("unconstrained flow did not complete instantly")
	}
	if !near(n.BytesByTag(TagOther), 1e6) {
		t.Fatalf("bytes = %v", n.BytesByTag(TagOther))
	}
}

func TestCancelReturnsRemaining(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	f := &Flow{Links: []*Link{l}, Size: 1000}
	n.Start(f)
	var rem float64
	e.At(2, func() { rem = n.Cancel(f) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(rem, 800) {
		t.Fatalf("remaining = %v, want 800", rem)
	}
	if !near(l.Bytes(), 200) {
		t.Fatalf("link bytes = %v, want 200", l.Bytes())
	}
	if n.CompletedFlows() != 0 {
		t.Fatal("canceled flow counted as completed")
	}
}

func TestCancelSpeedsUpOthers(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	f1 := &Flow{Links: []*Link{l}, Size: 200}
	var t2 sim.Time
	f2 := &Flow{Links: []*Link{l}, Size: 200, OnDone: func() { t2 = e.Now() }}
	n.Start(f1)
	n.Start(f2)
	e.At(1, func() { n.Cancel(f1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// f2: 50B in first second, then 150B at 100B/s -> done at 2.5.
	if !near(t2, 2.5) {
		t.Fatalf("t2 = %v, want 2.5", t2)
	}
}

func TestBlockingTransfer(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 50)
	var doneAt sim.Time
	e.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 100, TagPFS)
		doneAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(doneAt, 2) {
		t.Fatalf("doneAt = %v, want 2", doneAt)
	}
}

func TestWaitOnCanceledFlowReturns(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 1)
	f := &Flow{Links: []*Link{l}, Size: 1e9}
	n.Start(f)
	returned := false
	e.Go("waiter", func(p *sim.Proc) {
		f.Wait(p)
		returned = true
	})
	e.At(1, func() { n.Cancel(f) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Fatal("Wait did not return after cancel")
	}
}

func TestMultiPathSeriesBottleneck(t *testing.T) {
	// A flow crossing disk(55) -> nicOut(117) -> fabric(8000) -> nicIn(117)
	// runs at the disk rate.
	e := sim.New()
	n := NewNet(e)
	disk := NewLink("disk", 55)
	out := NewLink("out", 117.5)
	fab := NewLink("fab", 8000)
	in := NewLink("in", 117.5)
	f := &Flow{Links: []*Link{disk, out, fab, in}, Size: 550}
	var doneAt sim.Time
	f.OnDone = func() { doneAt = e.Now() }
	n.Start(f)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(doneAt, 10) {
		t.Fatalf("doneAt = %v, want 10", doneAt)
	}
	// Each link carried the full byte count (series path).
	for _, l := range []*Link{disk, out, fab, in} {
		if !near(l.Bytes(), 550) {
			t.Fatalf("link %s bytes = %v, want 550", l.Name, l.Bytes())
		}
	}
	// Tag accounting counts the flow once.
	if !near(n.TotalBytes(), 550) {
		t.Fatalf("total = %v, want 550", n.TotalBytes())
	}
}

func TestFabricContention(t *testing.T) {
	// 4 node-pairs, each NIC 100, fabric capacity 250: fabric is the
	// bottleneck; each of 4 flows gets 62.5.
	e := sim.New()
	n := NewNet(e)
	fab := NewLink("fab", 250)
	var flows []*Flow
	for i := 0; i < 4; i++ {
		out := NewLink("out", 100)
		in := NewLink("in", 100)
		f := &Flow{Links: []*Link{out, fab, in}, Size: 1e9}
		flows = append(flows, f)
		n.Start(f)
	}
	for i, f := range flows {
		if !near(f.Rate(), 62.5) {
			t.Fatalf("flow %d rate = %v, want 62.5", i, f.Rate())
		}
	}
	e.Stop()
}

// TestConservationProperty: for random flow sets, total accounted bytes
// equal the sum of completed sizes plus transferred parts of canceled flows.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.New()
		n := NewNet(e)
		links := make([]*Link, 5)
		for i := range links {
			links[i] = NewLink("l", 10+rng.Float64()*100)
		}
		var expected float64
		var canceled []*Flow
		nf := 3 + rng.Intn(8)
		for i := 0; i < nf; i++ {
			path := []*Link{links[rng.Intn(5)]}
			if rng.Intn(2) == 0 {
				path = append(path, links[rng.Intn(5)])
			}
			fl := &Flow{Links: path, Size: 1 + rng.Float64()*1000}
			if rng.Intn(4) == 0 {
				fl.MaxRate = 1 + rng.Float64()*50
			}
			start := rng.Float64() * 5
			e.At(start, func() { n.Start(fl) })
			if rng.Intn(5) == 0 {
				canceled = append(canceled, fl)
				e.At(start+rng.Float64()*2, func() { n.Cancel(fl) })
			} else {
				expected += fl.Size
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		var canceledTransferred float64
		for _, fl := range canceled {
			canceledTransferred += fl.Size - fl.Remaining()
		}
		return near(n.TotalBytes(), expected+canceledTransferred)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxMinInvariants: after any allocation, (1) no link exceeds capacity,
// (2) no flow exceeds its cap, (3) every flow is bottlenecked somewhere
// (saturated link or own cap) — the defining property of max-min fairness.
func TestMaxMinInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.New()
		n := NewNet(e)
		links := make([]*Link, 4)
		for i := range links {
			links[i] = NewLink("l", 10+rng.Float64()*100)
		}
		var flows []*Flow
		for i := 0; i < 3+rng.Intn(10); i++ {
			// Random non-empty subset of links.
			var path []*Link
			for _, l := range links {
				if rng.Intn(2) == 0 {
					path = append(path, l)
				}
			}
			if len(path) == 0 {
				path = []*Link{links[0]}
			}
			fl := &Flow{Links: path, Size: 1e12}
			if rng.Intn(3) == 0 {
				fl.MaxRate = 1 + rng.Float64()*40
			}
			flows = append(flows, fl)
			n.Start(fl)
		}
		defer e.Stop()
		// (1) capacity respected
		for _, l := range links {
			var sum float64
			for _, fl := range flows {
				for _, fl2 := range fl.Links {
					if fl2 == l {
						sum += fl.Rate()
					}
				}
			}
			if sum > l.Capacity*(1+1e-9) {
				return false
			}
		}
		for _, fl := range flows {
			// (2) cap respected
			if fl.MaxRate > 0 && fl.Rate() > fl.MaxRate*(1+1e-9) {
				return false
			}
			if fl.Rate() <= 0 {
				return false
			}
			// (3) bottlenecked somewhere
			bottled := fl.MaxRate > 0 && near(fl.Rate(), fl.MaxRate)
			for _, l := range fl.Links {
				var sum float64
				maxOnLink := 0.0
				for _, other := range flows {
					for _, l2 := range other.Links {
						if l2 == l {
							sum += other.Rate()
							if other.Rate() > maxOnLink {
								maxOnLink = other.Rate()
							}
						}
					}
				}
				// Saturated link where this flow has a maximal rate.
				if near(sum, l.Capacity) && fl.Rate() >= maxOnLink-tol {
					bottled = true
				}
			}
			if !bottled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTagString(t *testing.T) {
	if TagMemory.String() != "memory" || TagPFS.String() != "pfs" {
		t.Fatal("tag names wrong")
	}
	if len(Tags()) != int(numTags) {
		t.Fatal("Tags() length mismatch")
	}
}

// TestTagsNoAlloc pins the satellite contract: Tags() returns the shared
// package-level slice, so metrics aggregation loops can call it freely.
func TestTagsNoAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		if len(Tags()) != NumTags {
			t.Fatal("Tags() length mismatch")
		}
	}); allocs != 0 {
		t.Fatalf("Tags() allocates %v/op, want 0", allocs)
	}
}

// TestTransparentFabricDecouples: a fabric that cannot saturate must not
// constrain anyone — each flow is bottlenecked by its own NIC pair exactly
// as if the fabric were absent.
func TestTransparentFabricDecouples(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	fab := NewLink("fab", 8000)
	var flows []*Flow
	for i := 0; i < 4; i++ {
		out := NewLink("out", 100)
		in := NewLink("in", 100)
		f := &Flow{Links: []*Link{out, fab, in}, Size: 1e9}
		flows = append(flows, f)
		n.Start(f)
	}
	for i, f := range flows {
		if !near(f.Rate(), 100) {
			t.Fatalf("flow %d rate = %v, want 100 (fabric must be transparent)", i, f.Rate())
		}
	}
	e.Stop()
}

// TestTransparentFlipRelease: when the flow departing a shared link turns
// the link transparent, the flows it was constraining must still be
// recomputed and released to their own bottlenecks.
func TestTransparentFlipRelease(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	shared := NewLink("shared", 100)
	nicA := NewLink("nicA", 60)
	nicB := NewLink("nicB", 60)
	fa := &Flow{Links: []*Link{nicA, shared}, Size: 1e9}
	fb := &Flow{Links: []*Link{nicB, shared}, Size: 1e9}
	n.Start(fa)
	n.Start(fb)
	// ubSum on shared = 60+60 = 120 > 100: opaque, classic 50/50 split.
	if !near(fa.Rate(), 50) || !near(fb.Rate(), 50) {
		t.Fatalf("rates = %v, %v, want 50, 50", fa.Rate(), fb.Rate())
	}
	n.Cancel(fa)
	// shared now has ubSum = 60 <= 100: transparent — and fb must have been
	// released to its NIC rate, not left frozen at the stale 50.
	if !near(fb.Rate(), 60) {
		t.Fatalf("rate after departure = %v, want 60", fb.Rate())
	}
	e.Stop()
}

// TestTransparentFlipConstrain is the reverse: a link that turns opaque as
// flows join must start constraining the flows already crossing it.
func TestTransparentFlipConstrain(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	shared := NewLink("shared", 100)
	var flows []*Flow
	for i := 0; i < 3; i++ {
		nic := NewLink("nic", 60)
		f := &Flow{Links: []*Link{nic, shared}, Size: 1e9}
		flows = append(flows, f)
		n.Start(f)
	}
	// 3 x 60 = 180 > 100: the shared link binds at an equal share.
	for i, f := range flows {
		if !near(f.Rate(), 100.0/3) {
			t.Fatalf("flow %d rate = %v, want %v", i, f.Rate(), 100.0/3)
		}
	}
	e.Stop()
}

// TestCappedSingletonComponent: a capped flow whose links are all
// transparent forms a component of one and runs at its cap.
func TestCappedSingletonComponent(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	fab := NewLink("fab", 8000)
	f := &Flow{Links: []*Link{fab}, Size: 1e9, MaxRate: 10}
	g := &Flow{Links: []*Link{fab}, Size: 1e9, MaxRate: 25}
	n.Start(f)
	n.Start(g)
	if !near(f.Rate(), 10) || !near(g.Rate(), 25) {
		t.Fatalf("rates = %v, %v, want 10, 25", f.Rate(), g.Rate())
	}
	e.Stop()
}

// TestRemainingSettlesToLastEvent pins the lazy-settlement query contract:
// Remaining is accurate as of the last net activity at the current instant.
func TestRemainingSettlesToLastEvent(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	f := &Flow{Links: []*Link{l}, Size: 1000}
	n.Start(f)
	other := NewLink("other", 100)
	e.At(2, func() {
		n.Start(&Flow{Links: []*Link{other}, Size: 1e9}) // net event at t=2
		if !near(f.Remaining(), 800) {
			t.Fatalf("Remaining = %v, want 800", f.Remaining())
		}
		if !near(l.Bytes(), 200) {
			t.Fatalf("link bytes = %v, want 200", l.Bytes())
		}
		if !near(n.BytesByTag(TagOther), 200) {
			t.Fatalf("tag bytes = %v, want 200", n.BytesByTag(TagOther))
		}
	})
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	e.Shutdown()
}

// checkCompletionHeap verifies the completion-heap invariant and index
// bookkeeping after an operation.
func checkCompletionHeap(t *testing.T, n *Net) {
	t.Helper()
	h := n.compHeap
	for i, f := range h {
		if int(f.heapIdx) != i {
			t.Fatalf("heapIdx mismatch at %d: %d", i, f.heapIdx)
		}
		if i > 0 {
			p := h[(i-1)/2]
			if f.compT < p.compT || (f.compT == p.compT && f.seq < p.seq) {
				t.Fatalf("heap invariant broken at %d: child (%v,%d) < parent (%v,%d)",
					i, f.compT, f.seq, p.compT, p.seq)
			}
		}
	}
}

// TestCompletionHeapInvariantProperty drives random churn — clumps of flows
// sharing links, many of them capped loose flows (a cap keeps a flow out of
// any rate group, so one fill re-keys most of the heap at once), against a
// disjoint background population — and asserts the heap invariant after
// every event. This pins the repair in recomputeComponent: each changed key
// is fixed immediately, which is only sound if it is fixed before the next
// one changes. Bursts of equal flows, loose on two shared links or dealt
// out to the members of up to 12 rate groups, each with a few stragglers a
// fraction of epsBytes longer, come due together and drive the sweep's batch retirement and its
// heap rebuild. The background flows and the first flow of each burst on a
// hub start uncontended, and the burst's next start admits it. Each
// schedule is run again retiring one root at a time, and once more
// starting every flow on the ordinary path; all three runs must fire the
// same completions at the same instants and leave bit-identical link and
// tag byte counts.
func TestCompletionHeapInvariantProperty(t *testing.T) {
	var rebuilds, retired, uncontended uint64
	f := func(seed int64) bool {
		log, st := runHeapSchedule(t, seed, netMode{})
		ref, _ := runHeapSchedule(t, seed, netMode{oneByOne: true})
		sameLog(t, fmt.Sprintf("seed %d, one root at a time", seed), log, ref)
		ref, _ = runHeapSchedule(t, seed, netMode{ordinary: true})
		sameLog(t, fmt.Sprintf("seed %d, ordinary starts", seed), log, ref)
		rebuilds += st.Rebuilds
		retired += st.Retired
		uncontended += st.Uncontended
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d flows retired, %d uncontended, %d sweeps rebuilt", retired, uncontended, rebuilds)
	if rebuilds == 0 || retired == 0 {
		t.Fatalf("%d flows retired in %d rebuilds: the schedules missed the batch path", retired, rebuilds)
	}
	if uncontended == 0 {
		t.Fatalf("%d flows retired, none uncontended: the schedules missed the fast path", retired)
	}
}

// runHeapSchedule runs TestCompletionHeapInvariantProperty's schedule for
// one seed and returns its log: each completion as the flow's start index
// and the instant's bits, then, after every step, each link's and each
// tag's byte count as bits.
func runHeapSchedule(t *testing.T, seed int64, mode netMode) ([][2]uint64, Stats) {
	rng := rand.New(rand.NewSource(seed))
	e := sim.New()
	n := NewNet(e)
	mode.set(n)
	var log [][2]uint64
	var links []*Link
	started := uint64(0)
	start := func(fl *Flow) {
		id := started
		started++
		fl.OnDone = func() { log = append(log, [2]uint64{id, math.Float64bits(e.Now())}) }
		n.Start(fl)
	}
	newLink := func(name string, c float64) *Link {
		l := NewLink(name, c)
		links = append(links, l)
		return l
	}
	// Disjoint background flows padding the heap.
	for i := 0; i < 12; i++ {
		l := newLink("bg", 50+rng.Float64()*100)
		start(&Flow{Links: []*Link{l}, Size: 1e7 + rng.Float64()*1e9})
	}
	shared := []*Link{newLink("s1", 120), newLink("s2", 80)}
	var hubs []*Link
	for i := 0; i < 12; i++ {
		hubs = append(hubs, newLink("hub", 100))
	}
	// Caps straddle the shared links' fair shares, so every reshare
	// moves the keys of the flows capped above the new share.
	capRate := func() float64 { return 2 + rng.Float64()*60 }
	var live []*Flow
	for i := 0; i < 16; i++ {
		fl := &Flow{Links: []*Link{shared[i%2]}, Size: 1e6 + rng.Float64()*1e8, MaxRate: capRate()}
		start(fl)
		live = append(live, fl)
	}
	checkCompletionHeap(t, n)
	for op := 0; op < 60; op++ {
		fired := false
		e.After(rng.Float64()*2, func() { fired = true })
		for !fired && e.Step() {
			checkCompletionHeap(t, n)
		}
		switch k := rng.Intn(6); {
		case k < 2 || len(live) == 0:
			fl := &Flow{
				Links: []*Link{shared[rng.Intn(2)]},
				Size:  1e5 + rng.Float64()*1e8,
			}
			if rng.Intn(4) == 0 {
				fl.Links = append(fl.Links, shared[rng.Intn(2)])
			}
			if rng.Intn(2) == 0 {
				fl.MaxRate = capRate()
			}
			start(fl)
			live = append(live, fl)
		case k < 3:
			i := rng.Intn(len(live))
			n.Cancel(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // a burst of equal flows with a few stragglers
			// Loose on the shared links, or dealt out to the members of
			// up to 12 rate groups, whose representatives come due
			// together.
			groups := 0
			if k == 5 {
				groups = 1 + rng.Intn(len(hubs))
			}
			size := 1 + rng.Float64()*20
			for i, m := 0, 2+rng.Intn(95); i < m; i++ {
				sz := size
				if i%16 == 15 {
					sz += epsBytes / 2
				}
				path := shared
				if groups > 0 {
					path = []*Link{hubs[i%groups]}
				}
				start(&Flow{Links: path, Size: sz})
			}
		}
		checkCompletionHeap(t, n)
		for _, l := range links {
			log = append(log, [2]uint64{math.MaxUint64, math.Float64bits(l.Bytes())})
		}
		for _, tg := range Tags() {
			log = append(log, [2]uint64{math.MaxUint64, math.Float64bits(n.BytesByTag(tg))})
		}
	}
	st := n.Stats()
	e.Stop()
	e.Shutdown()
	return log, st
}

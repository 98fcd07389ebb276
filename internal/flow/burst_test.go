package flow

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/hybridmig/hybridmig/internal/sim"
)

// This file covers the per-instant flush: Start defers its component fill,
// and one flush per virtual instant fills every component that received a
// start, before the clock moves on or anything reads the net.

// TestStatsOneFillPerComponentPerInstant: five starts into each of three
// disjoint components at one instant cost one flush and three fills;
// starts at distinct instants cost one flush each and one fill each after
// the first, which starts alone on an idle link and is rated without one.
func TestStatsOneFillPerComponentPerInstant(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	links := []*Link{NewLink("a", 100), NewLink("b", 100), NewLink("c", 100)}
	for i := 0; i < 5; i++ {
		for _, l := range links {
			n.Start(&Flow{Links: []*Link{l}, Size: 1e9})
		}
	}
	if err := e.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	// Five single-link flows on one link form one rate group: one unit.
	want := Stats{Starts: 15, Flushes: 1, Fills: 3, Collected: 3}
	if got := n.Stats(); got != want {
		t.Fatalf("burst at one instant: stats %+v, want %+v", got, want)
	}
	for _, l := range links {
		for _, f := range l.group.members {
			if !near(f.Rate(), 20) {
				t.Fatalf("%s: rate %v, want 20", l.Name, f.Rate())
			}
		}
	}
	e.Stop()

	e = sim.New()
	n = NewNet(e)
	l := NewLink("l", 100)
	for i := 0; i < 5; i++ {
		e.At(float64(i), func() { n.Start(&Flow{Links: []*Link{l}, Size: 1e9}) })
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if got, want := n.Stats(), (Stats{Starts: 5, Flushes: 5, Fills: 4, Collected: 4}); got != want {
		t.Fatalf("staggered starts: stats %+v, want %+v", got, want)
	}
	e.Stop()
}

// TestStatsBurstRetiredInOneRebuild: 80 equal loose flows and a rate group
// of 16 equal members, all due at t=80 in a heap of 101 entries, retire in
// one sweep that rebuilds the heap once (the 80 loose flows and the group's
// representative are 81 heap entries, 81·⌈log₂ 101⌉ ≥ 101), in activation
// order; 20 flows that then finish one at a time rebuild nothing.
func TestStatsBurstRetiredInOneRebuild(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	a, b, c := NewLink("a", 100), NewLink("b", 100), NewLink("c", 80)
	var order []int
	for i := 0; i < 96; i++ {
		f := &Flow{Links: []*Link{a, b}, Size: 100} // 1.25 B/s: done at 80
		if i%6 == 0 {
			f = &Flow{Links: []*Link{c}, Size: 400} // 5 B/s: done at 80
		}
		f.OnDone = func() { order = append(order, i) }
		n.Start(f)
	}
	for i := 0; i < 20; i++ {
		n.Start(&Flow{Links: []*Link{NewLink("pad", 10)}, Size: 1000 + float64(i)})
	}
	if err := e.RunUntil(80); err != nil {
		t.Fatal(err)
	}
	if len(order) != 96 || !slices.IsSorted(order) {
		t.Fatalf("completions at t=80 in order %v, want 0..95", order)
	}
	if len(c.group.members) != 0 {
		t.Fatalf("%d group members left", len(c.group.members))
	}
	// One fill per component: {a, b} and c's group. The 20 pads are alone
	// on their links and rated without a fill.
	want := Stats{Starts: 116, Flushes: 1, Fills: 2, Collected: 81, Retired: 96, Rebuilds: 1}
	if got := n.Stats(); got != want {
		t.Fatalf("after the burst: stats %+v, want %+v", got, want)
	}
	if err := e.RunUntil(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	want.Retired += 20
	want.Uncontended += 20
	if got := n.Stats(); got != want {
		t.Fatalf("after the pads: stats %+v, want %+v", got, want)
	}
	checkCompletionHeap(t, n)
	e.Stop()
}

// TestStatsGroupBurstNoRebuild: a rate group's 40 equal members retire in
// one sweep, but they hold a single entry of a 21-entry completion heap
// (1·⌈log₂ 21⌉ < 21), so the sweep pops them through popMember and
// rebuilds nothing.
func TestStatsGroupBurstNoRebuild(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	c := NewLink("c", 40)
	var order []int
	for i := 0; i < 40; i++ {
		n.Start(&Flow{Links: []*Link{c}, Size: 80, OnDone: func() { order = append(order, i) }}) // 1 B/s: done at 80
	}
	for i := 0; i < 20; i++ {
		n.Start(&Flow{Links: []*Link{NewLink("pad", 10)}, Size: 1000 + float64(i)})
	}
	if err := e.RunUntil(80); err != nil {
		t.Fatal(err)
	}
	if len(order) != 40 || !slices.IsSorted(order) {
		t.Fatalf("completions at t=80 in order %v, want 0..39", order)
	}
	if got := n.Stats(); got.Retired != 40 || got.Rebuilds != 0 {
		t.Fatalf("after the burst: %d retired in %d rebuilds, want 40 in 0", got.Retired, got.Rebuilds)
	}
	checkCompletionHeap(t, n)
	e.Stop()
}

// TestSortDone: a sweep's batch comes out in seq order whatever its length
// and seq spread, through the insertion sort and through one to seven radix
// passes, and sortDone's two buffers stay distinct.
func TestSortDone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := &Net{}
	for _, k := range []int{0, 1, 2, radixMin - 1, radixMin, 457} {
		for _, spread := range []uint64{1, 1 << 8, 1 << 16, 1 << 30, 1 << 40} {
			base := rng.Uint64() >> 20
			var want []uint64
			n.done = n.done[:0]
			for _, i := range rng.Perm(k) {
				seq := base + uint64(i)*spread + uint64(rng.Intn(int(min(spread, 1<<20))))
				n.done = append(n.done, &Flow{seq: seq})
				want = append(want, seq)
			}
			slices.Sort(want)
			n.sortDone()
			got := make([]uint64, len(n.done))
			for i, f := range n.done {
				got[i] = f.seq
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d flows %d apart: sorted %v, want %v", k, spread, got, want)
			}
			if k > 0 && cap(n.sortBuf) > 0 && &n.sortBuf[:1][0] == &n.done[0] {
				t.Fatalf("%d flows %d apart: the batch and the radix scratch share storage", k, spread)
			}
		}
	}
}

// TestReadsFlushPendingStarts: every read and every mutation made at the
// burst instant, before the flush event has run, first flushes the pending
// starts, so it sees (and builds on) the instant's final allocation.
func TestReadsFlushPendingStarts(t *testing.T) {
	type burst struct {
		n      *Net
		shared *Link
		flows  []*Flow
	}
	cases := []struct {
		name string
		read func(b *burst) float64
		want float64
	}{
		{"Rate", func(b *burst) float64 { return b.flows[0].Rate() }, 25},
		{"Remaining", func(b *burst) float64 { return b.flows[2].Remaining() }, 1e9},
		// The standing flow ran alone on the shared link for one second.
		{"Link.Bytes", func(b *burst) float64 { return b.shared.Bytes() }, 100},
		{"BytesByTag", func(b *burst) float64 { return b.n.BytesByTag(TagOther) }, 200},
		{"TotalBytes", func(b *burst) float64 { return b.n.TotalBytes() }, 200},
		// A flow canceled at its own start instant moved nothing.
		{"Cancel", func(b *burst) float64 { return b.n.Cancel(b.flows[1]) }, 1e9},
		// At 200 B/s the shared link stops binding: the capped flow takes
		// 30 and the other link splits three ways.
		{"SetCapacity", func(b *burst) float64 {
			b.n.SetCapacity(b.shared, 200)
			return b.flows[3].Rate()
		}, 100.0 / 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := sim.New()
			n := NewNet(e)
			shared, other := NewLink("shared", 100), NewLink("other", 100)
			n.Start(&Flow{Links: []*Link{shared}, Size: 1e9})
			n.Start(&Flow{Links: []*Link{other}, Size: 1e9})
			b := &burst{n: n, shared: shared}
			e.At(1, func() {
				// Three starts into the shared link's component (one of them
				// capped, so it stays loose) and one into the other link's.
				b.flows = []*Flow{
					{Links: []*Link{shared}, Size: 1e9},
					{Links: []*Link{shared, other}, Size: 1e9},
					{Links: []*Link{shared}, Size: 1e9, MaxRate: 30},
					{Links: []*Link{other}, Size: 1e9},
				}
				for _, f := range b.flows {
					n.Start(f)
				}
				before := n.Stats().Flushes
				if len(n.pending) != len(b.flows) {
					t.Fatalf("%d pending starts before the read, want %d", len(n.pending), len(b.flows))
				}
				got := c.read(b)
				if len(n.pending) != 0 {
					t.Fatalf("%s left %d starts pending", c.name, len(n.pending))
				}
				if n.Stats().Flushes != before+1 {
					t.Fatalf("%s: %d flushes, want 1", c.name, n.Stats().Flushes-before)
				}
				if !near(got, c.want) {
					t.Fatalf("%s = %v, want %v", c.name, got, c.want)
				}
				checkRates(t, n, c.name)
				checkCompletionHeap(t, n)
			})
			if err := e.RunUntil(1); err != nil {
				t.Fatal(err)
			}
			e.Stop()
		})
	}
}

// TestStartAtSweepInstantDefersNearlyDrained is the regression test for
// the sweep race. A sweep is armed for t=1, when flow a is within epsBytes
// of done but not yet projected done. A flow started on a's link at t=1, by
// an event that precedes the sweep, slows a down: as in an eager refill at
// the start, the sweep must move past the start's flush, so a completes
// after t=1 rather than being retired at t=1 at its old rate.
func TestStartAtSweepInstantDefersNearlyDrained(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l, l2 := NewLink("l", 100), NewLink("l2", 100)
	var b *Flow
	e.At(1, func() {
		b = &Flow{Links: []*Link{l}, Size: 1e9}
		n.Start(b)
	})
	var aDone, cDone sim.Time
	// c completes exactly at t=1 and arms the sweep there; a has 0.0004
	// bytes left at t=1.
	n.Start(&Flow{Links: []*Link{l2}, Size: 100, OnDone: func() { cDone = e.Now() }})
	a := &Flow{Links: []*Link{l}, Size: 100.0004, OnDone: func() { aDone = e.Now() }}
	n.Start(a)
	if err := e.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if cDone <= 1 || aDone <= 1 {
		t.Fatalf("completions at c=%v a=%v, want both after the start at t=1", cDone, aDone)
	}
	if aDone != cDone {
		t.Fatalf("a completed at %v, want the re-armed sweep at %v", aDone, cDone)
	}
	if !near(b.Remaining(), 1e9) {
		t.Fatalf("b remaining %v", b.Remaining())
	}
	e.Stop()
}

// netMode selects the reference paths a schedule runs under; the zero
// mode is the production one.
type netMode struct {
	oneByOne bool // sweeps retire one heap root at a time
	ordinary bool // every flow starts on the ordinary path
}

func (m netMode) set(n *Net) { n.oneByOne, n.ordinary = m.oneByOne, m.ordinary }

// runBurstSchedule drives a Net through a schedule decoded from data and
// checks, after every step, the rates against the waterfilling oracle, the
// completion-heap invariant and the component partition; after every burst
// it also checks that the instant cost exactly one flush and at most one
// fill per start. At the end, byte conservation. It returns the run's log:
// each completion as the flow's start index and the instant's bits, then
// each link's and each tag's byte count as bits.
func runBurstSchedule(t *testing.T, data []byte, mode netMode) [][2]uint64 {
	e := sim.New()
	n := NewNet(e)
	mode.set(n)
	var log [][2]uint64
	links := []*Link{NewLink("l0", 100), NewLink("l1", 150), NewLink("l2", 80), NewLink("l3", 120), NewLink("l4", 60)}
	var sizes, moved, completed float64
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for step := 0; len(data) > 0 && step < 64; step++ {
		switch op := next() % 4; op {
		case 0, 1: // a burst of 2..16 starts at one instant
			k := 2 + int(next())%15
			before := n.Stats()
			for i := 0; i < k && len(data) > 0; i++ {
				sel := next()
				f := &Flow{Tag: Tag(sel % uint8(NumTags)), Size: 1 + float64(next())*4}
				for j, l := range links {
					if sel&(1<<j) != 0 {
						f.Links = append(f.Links, l)
					}
				}
				if sel&0x80 != 0 || len(f.Links) == 0 {
					f.MaxRate = 5 + float64(sel%32)*3
				}
				sz, id := f.Size, uint64(n.Stats().Starts)
				sizes += sz
				f.OnDone = func() {
					completed += sz
					log = append(log, [2]uint64{id, math.Float64bits(e.Now())})
				}
				n.Start(f)
			}
			if next()%2 == 0 {
				if err := e.RunUntil(e.Now()); err != nil {
					t.Fatal(err)
				}
			}
			starts := n.Stats().Starts - before.Starts
			checkRates(t, n, "burst")
			after := n.Stats()
			if starts > 0 && after.Flushes-before.Flushes != 1 {
				t.Fatalf("burst of %d starts: %d flushes, want 1", starts, after.Flushes-before.Flushes)
			}
			if after.Fills-before.Fills > starts {
				t.Fatalf("burst of %d starts: %d fills", starts, after.Fills-before.Fills)
			}
		case 2: // cancel an active flow, or change a capacity
			arg := next()
			if arg%2 == 0 && len(n.flows) > 0 {
				f := n.flows[int(arg/2)%len(n.flows)]
				moved += f.Size - n.Cancel(f)
			} else {
				n.SetCapacity(links[int(arg/2)%len(links)], 20+float64(next()))
			}
			checkRates(t, n, "cancel/setcap")
		default: // advance the clock; completions fire
			if err := e.RunUntil(e.Now() + float64(next())/64); err != nil {
				t.Fatal(err)
			}
			checkRates(t, n, "advance")
		}
		checkCompletionHeap(t, n)
		checkPartition(t, n, fmt.Sprintf("step %d", step))
	}
	for _, f := range append([]*Flow(nil), n.flows...) {
		moved += f.Size - n.Cancel(f)
	}
	total := n.TotalBytes()
	want := completed + moved
	if slack := float64(n.Stats().Starts)*epsBytes + 1e-9*math.Max(1, want); math.Abs(total-want) > slack {
		t.Fatalf("byte conservation: tags carry %v, outcomes say %v (sizes %v)", total, want, sizes)
	}
	for _, l := range links {
		log = append(log, [2]uint64{math.MaxUint64, math.Float64bits(l.Bytes())})
	}
	for _, tg := range Tags() {
		log = append(log, [2]uint64{math.MaxUint64, math.Float64bits(n.BytesByTag(tg))})
	}
	e.Stop()
	return log
}

// FuzzBurstStarts drives runBurstSchedule from fuzzer bytes three times:
// as in production, retiring one heap root per sweep, and starting every
// flow on the ordinary path. The two references' logs must match the
// production run's bit for bit. The seed corpus is under
// testdata/fuzz/FuzzBurstStarts; its equal-burst seeds retire co-due loose
// flows, and the representatives of four co-due rate groups with the
// members behind them, through a heap rebuild, and its admit-* seeds make
// uncontended flows ordinary at their own start instant, at a later start,
// at a capacity change and at their cancel.
func FuzzBurstStarts(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		log := runBurstSchedule(t, data, netMode{})
		sameLog(t, "burst schedule, one root at a time", log, runBurstSchedule(t, data, netMode{oneByOne: true}))
		sameLog(t, "burst schedule, ordinary starts", log, runBurstSchedule(t, data, netMode{ordinary: true}))
	})
}

// sameLog fails unless a production run's log equals a reference run's.
func sameLog(t *testing.T, what string, got, ref [][2]uint64) {
	t.Helper()
	for i := 0; i < min(len(got), len(ref)); i++ {
		if got[i] != ref[i] {
			t.Fatalf("%s: log entry %d is %v, reference %v", what, i, got[i], ref[i])
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: %d log entries, reference %d", what, len(got), len(ref))
	}
}

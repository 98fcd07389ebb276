package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/hybridmig/hybridmig/internal/sim"
)

func TestSetCapacitySpeedsUpFlow(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	var doneAt sim.Time
	f := &Flow{Links: []*Link{l}, Size: 1000, OnDone: func() { doneAt = e.Now() }}
	n.Start(f)
	// 500 B move in the first 5 s; then the link doubles and the remaining
	// 500 B take 2.5 s.
	e.At(5, func() { n.SetCapacity(l, 200) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(doneAt, 7.5) {
		t.Fatalf("doneAt = %v, want 7.5", doneAt)
	}
	if !near(l.Bytes(), 1000) {
		t.Fatalf("link bytes = %v, want 1000", l.Bytes())
	}
}

func TestSetCapacityDegradesFlow(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	var doneAt sim.Time
	f := &Flow{Links: []*Link{l}, Size: 1000, OnDone: func() { doneAt = e.Now() }}
	n.Start(f)
	// 500 B by t=5, then a 10x degradation: 500 B at 10 B/s -> 50 s more.
	e.At(5, func() {
		n.SetCapacity(l, 10)
		if !near(f.Rate(), 10) {
			t.Errorf("rate after degrade = %v, want 10", f.Rate())
		}
		if !near(f.Remaining(), 500) {
			t.Errorf("remaining after degrade = %v, want 500", f.Remaining())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(doneAt, 55) {
		t.Fatalf("doneAt = %v, want 55", doneAt)
	}
}

func TestSetCapacityRebalancesComponent(t *testing.T) {
	// Max-min scenario from TestBottleneckMaxMin, then B degrades further:
	// flow2 drops to the new B capacity and flow1 picks up A's residual.
	e := sim.New()
	n := NewNet(e)
	la := NewLink("A", 100)
	lb := NewLink("B", 30)
	f1 := &Flow{Links: []*Link{la}, Size: 1e9}
	f2 := &Flow{Links: []*Link{la, lb}, Size: 1e9}
	n.Start(f1)
	n.Start(f2)
	n.SetCapacity(lb, 10)
	if !near(f2.Rate(), 10) {
		t.Fatalf("f2 rate = %v, want 10", f2.Rate())
	}
	if !near(f1.Rate(), 90) {
		t.Fatalf("f1 rate = %v, want 90", f1.Rate())
	}
	// Recovery above A's share point: both split A evenly.
	n.SetCapacity(lb, 80)
	if !near(f1.Rate(), 50) || !near(f2.Rate(), 50) {
		t.Fatalf("rates = %v,%v, want 50,50", f1.Rate(), f2.Rate())
	}
}

func TestSetCapacityTransparentTurnsOpaque(t *testing.T) {
	// A wide shared fabric is transparent and does not couple two flows;
	// degrading it below their summed ceilings must make it the shared
	// bottleneck.
	e := sim.New()
	n := NewNet(e)
	fab := NewLink("fabric", 1000)
	a := NewLink("a", 100)
	b := NewLink("b", 100)
	fa := &Flow{Links: []*Link{a, fab}, Size: 1e9}
	fb := &Flow{Links: []*Link{b, fab}, Size: 1e9}
	n.Start(fa)
	n.Start(fb)
	if !near(fa.Rate(), 100) || !near(fb.Rate(), 100) {
		t.Fatalf("pre-degrade rates = %v,%v, want 100,100", fa.Rate(), fb.Rate())
	}
	n.SetCapacity(fab, 120)
	if !near(fa.Rate(), 60) || !near(fb.Rate(), 60) {
		t.Fatalf("post-degrade rates = %v,%v, want 60,60", fa.Rate(), fb.Rate())
	}
	// Recovery: the fabric turns transparent again and decouples the flows.
	n.SetCapacity(fab, 1000)
	if !near(fa.Rate(), 100) || !near(fb.Rate(), 100) {
		t.Fatalf("post-recovery rates = %v,%v, want 100,100", fa.Rate(), fb.Rate())
	}
}

func TestSetCapacityOpaqueTurnsTransparent(t *testing.T) {
	// Raising a bottleneck's capacity above the flows' other ceilings must
	// release them to those ceilings (opaque -> transparent flip).
	e := sim.New()
	n := NewNet(e)
	shared := NewLink("shared", 50)
	a := NewLink("a", 100)
	b := NewLink("b", 100)
	fa := &Flow{Links: []*Link{a, shared}, Size: 1e9}
	fb := &Flow{Links: []*Link{b, shared}, Size: 1e9}
	n.Start(fa)
	n.Start(fb)
	if !near(fa.Rate(), 25) || !near(fb.Rate(), 25) {
		t.Fatalf("pre rates = %v,%v, want 25,25", fa.Rate(), fb.Rate())
	}
	n.SetCapacity(shared, 1000)
	if !near(fa.Rate(), 100) || !near(fb.Rate(), 100) {
		t.Fatalf("post rates = %v,%v, want 100,100", fa.Rate(), fb.Rate())
	}
}

func TestSetCapacityReschedulesCompletion(t *testing.T) {
	// Two flows on disjoint links; degrading one must reorder completions.
	e := sim.New()
	n := NewNet(e)
	la := NewLink("a", 100)
	lb := NewLink("b", 100)
	var order []string
	n.Start(&Flow{Links: []*Link{la}, Size: 100, OnDone: func() { order = append(order, "a") }})
	n.Start(&Flow{Links: []*Link{lb}, Size: 200, OnDone: func() { order = append(order, "b") }})
	// Without the change: a at t=1, b at t=2. Degrading a at t=0.5 to 10 B/s
	// pushes a's completion to 0.5 + 50/10 = 5.5, after b's t=2.
	e.At(0.5, func() { n.SetCapacity(la, 10) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("completion order = %v, want [b a]", order)
	}
	if !near(e.Now(), 5.5) {
		t.Fatalf("clock = %v, want 5.5", e.Now())
	}
}

func TestSetCapacityIdleLink(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	n.SetCapacity(l, 42)
	if l.Capacity != 42 {
		t.Fatalf("capacity = %v, want 42", l.Capacity)
	}
	var doneAt sim.Time
	n.Start(&Flow{Links: []*Link{l}, Size: 84, OnDone: func() { doneAt = e.Now() }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(doneAt, 2) {
		t.Fatalf("doneAt = %v, want 2", doneAt)
	}
}

// TestNewLinkInvalidPanics: NewLink rejects the capacities SetCapacity
// rejects, NaN and ±Inf included.
func TestNewLinkInvalidPanics(t *testing.T) {
	for _, c := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(%v) did not panic", c)
				}
			}()
			NewLink("l", c)
		}()
	}
}

func TestSetCapacityInvalidPanics(t *testing.T) {
	e := sim.New()
	n := NewNet(e)
	l := NewLink("l", 100)
	for _, c := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetCapacity(%v) did not panic", c)
				}
			}()
			n.SetCapacity(l, c)
		}()
	}
}

// dynNet is the randomized-op harness state: a small fabric of links plus
// the set of live flows and a shadow account of every byte outcome.
type dynNet struct {
	eng   *sim.Engine
	net   *Net
	links []*Link
	base  []float64 // configured capacities (degradations scale these)
	live  []*Flow
	sizes map[*Flow]float64

	completedBytes float64
	canceledMoved  float64 // bytes moved by flows that were later canceled
}

// checkRates asserts the allocation invariants that must hold after every
// operation: no negative rate, no negative capacity, and no link carrying
// more than its capacity.
func (d *dynNet) checkRates(t *testing.T) {
	t.Helper()
	for _, f := range d.live {
		if f.Done() {
			continue
		}
		if f.Rate() < 0 {
			t.Fatalf("negative rate %v", f.Rate())
		}
		if f.MaxRate > 0 && f.Rate() > f.MaxRate*(1+tol) {
			t.Fatalf("rate %v above cap %v", f.Rate(), f.MaxRate)
		}
	}
	for _, l := range d.links {
		if l.Capacity <= 0 {
			t.Fatalf("non-positive capacity %v on %s", l.Capacity, l.Name)
		}
		var sum float64
		for _, f := range d.live {
			if f.Done() {
				continue
			}
			for _, lk := range f.Links {
				if lk == l {
					sum += f.Rate()
				}
			}
		}
		if sum > l.Capacity*(1+tol)+tol {
			t.Fatalf("link %s oversubscribed: %v > %v", l.Name, sum, l.Capacity)
		}
	}
}

// TestRandomDynamicInvariants drives a seeded random schedule of flow
// starts, cancels, capacity changes and time advances, checking after every
// step that rates and capacities stay sane, and at the end that every byte
// is conserved: sizes of completed flows plus the moved part of canceled
// flows equals the per-tag totals.
func TestRandomDynamicInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			trace1 := runRandomDynamic(t, seed)
			trace2 := runRandomDynamic(t, seed)
			if trace1 != trace2 {
				t.Fatalf("same seed diverged:\n%s\nvs\n%s", trace1, trace2)
			}
		})
	}
}

// runRandomDynamic executes one seeded schedule and returns a determinism
// fingerprint (hex-float clock and byte totals).
func runRandomDynamic(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := sim.New()
	d := &dynNet{eng: e, net: NewNet(e), sizes: map[*Flow]float64{}}
	for i := 0; i < 6; i++ {
		cap := 50 + rng.Float64()*200
		d.links = append(d.links, NewLink(fmt.Sprintf("l%d", i), cap))
		d.base = append(d.base, cap)
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // start a flow over 1-3 random links
			nl := 1 + rng.Intn(3)
			links := make([]*Link, 0, nl)
			for _, idx := range rng.Perm(len(d.links))[:nl] {
				links = append(links, d.links[idx])
			}
			f := &Flow{
				Links: links,
				Size:  10 + rng.Float64()*500,
				Tag:   Tag(rng.Intn(NumTags)),
			}
			if rng.Intn(3) == 0 {
				f.MaxRate = 20 + rng.Float64()*100
			}
			sz := f.Size
			f.OnDone = func() { d.completedBytes += sz }
			d.sizes[f] = sz
			d.net.Start(f)
			d.live = append(d.live, f)
		case op < 6: // cancel a random live flow
			if len(d.live) == 0 {
				continue
			}
			f := d.live[rng.Intn(len(d.live))]
			if f.Done() {
				continue
			}
			rem := d.net.Cancel(f)
			d.canceledMoved += d.sizes[f] - rem
		case op < 9: // change a random link's capacity (0.05x .. 2x base)
			i := rng.Intn(len(d.links))
			factor := 0.05 + rng.Float64()*1.95
			d.net.SetCapacity(d.links[i], d.base[i]*factor)
		default: // advance the clock
			limit := e.Now() + rng.Float64()*2
			if err := e.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
		}
		d.checkRates(t)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	d.checkRates(t)
	var tagTotal float64
	for _, tag := range Tags() {
		b := d.net.BytesByTag(tag)
		if b < 0 {
			t.Fatalf("negative tag bytes %v for %s", b, tag)
		}
		tagTotal += b
	}
	want := d.completedBytes + d.canceledMoved
	// Completion absorbs up to epsBytes of round-off per flow.
	slack := float64(len(d.sizes))*epsBytes + tol*math.Max(1, want)
	if math.Abs(tagTotal-want) > slack {
		t.Fatalf("byte conservation violated: tags carry %v, outcomes say %v (slack %v)",
			tagTotal, want, slack)
	}
	return fmt.Sprintf("clock=%x completed=%x canceled=%x total=%x",
		e.Now(), d.completedBytes, d.canceledMoved, tagTotal)
}

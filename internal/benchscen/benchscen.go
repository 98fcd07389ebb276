// Package benchscen holds the benchmark scenario bodies shared by the
// package benchmarks (internal/flow, internal/sim) and the per-layer probes
// of the benchmark module (benchmark/probes.go), so `go test -bench` and
// the benchmark's matching sim and flow metrics measure the same thing.
package benchscen

import (
	"fmt"
	"testing"

	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// FlowChurn measures one flow start+cancel against a standing population:
// the allocator's reaction to churn. With disjoint links the churned flow's
// component has one member, so the cost must stay flat as the population
// grows; with one shared link every flow is in the component and linear
// cost is expected and allowed.
func FlowChurn(b *testing.B, flows int, shared bool) {
	e := sim.New()
	n := flow.NewNet(e)
	var churnPath []*flow.Link
	if shared {
		l := flow.NewLink("shared", 1e9)
		for i := 0; i < flows; i++ {
			n.Start(&flow.Flow{Links: []*flow.Link{l}, Size: 1e15})
		}
		churnPath = []*flow.Link{l}
	} else {
		for i := 0; i < flows; i++ {
			l := flow.NewLink(fmt.Sprintf("l%d", i), 1e9)
			n.Start(&flow.Flow{Links: []*flow.Link{l}, Size: 1e15})
		}
		churnPath = []*flow.Link{flow.NewLink("churn", 1e9)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := n.AcquireFlow()
		f.Links = churnPath
		f.Size = 1e15
		n.Start(f)
		n.Cancel(f)
		n.ReleaseFlow(f)
	}
	b.StopTimer()
	e.Stop()
}

// AfterFire is the headline event-path scenario: schedule one timer and
// fire it. Must run at 0 allocs/op (pooled event records, value Timer
// handles).
func AfterFire(b *testing.B) {
	e := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		if !e.Step() {
			b.Fatal("no event fired")
		}
	}
}

// TimerChurn mixes scheduling, eager cancellation, and firing against a
// standing population of pending timers — the pattern the flow layer's
// completion rescheduling produces.
func TimerChurn(b *testing.B) {
	e := sim.New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.After(1e9+float64(i), fn) // standing population, never fires
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := e.After(1, fn)
		t2 := e.After(2, fn)
		e.After(0.5, fn)
		if !t1.Cancel() || !t2.Cancel() {
			b.Fatal("cancel failed")
		}
		if !e.Step() {
			b.Fatal("no event fired")
		}
	}
}

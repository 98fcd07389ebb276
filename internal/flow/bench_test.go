package flow_test

import (
	"fmt"
	"testing"

	"github.com/hybridmig/hybridmig/internal/benchscen"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// The churn scenario bodies live in internal/benchscen so the benchmark
// module's flow.churn_* probes measure exactly what these benchmarks measure.

func BenchmarkRecomputeDisjoint(b *testing.B) {
	for _, flows := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			benchscen.FlowChurn(b, flows, false)
		})
	}
}

func BenchmarkRecomputeShared(b *testing.B) {
	for _, flows := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			benchscen.FlowChurn(b, flows, true)
		})
	}
}

// BenchmarkRetireTransparent churns one flow against standing flows that
// share only a transparent fabric link: the cost must stay flat in N.
func BenchmarkRetireTransparent(b *testing.B) {
	for _, flows := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			benchscen.FlowRetireTransparent(b, flows)
		})
	}
}

// BenchmarkRecomputeBurst starts a burst of flows at one instant, lets the
// instant's flush fill their components, and cancels them.
func BenchmarkRecomputeBurst(b *testing.B) { burstChurn(b) }

// burstChurn is one op of BenchmarkRecomputeBurst: eight starts at one
// instant into two components that stand 100 flows each — multi-link and
// capped flows that stay loose, plus flows that join a rate group — then
// the flush event, then eight cancels. It covers the multi-component flush
// and its start-order settle.
func burstChurn(b *testing.B) {
	e := sim.New()
	n := flow.NewNet(e)
	x, y, z := flow.NewLink("x", 1e9), flow.NewLink("y", 1e9), flow.NewLink("z", 1e9)
	for i := 0; i < 100; i++ {
		n.Start(&flow.Flow{Links: []*flow.Link{x, y}, Size: 1e15})
		n.Start(&flow.Flow{Links: []*flow.Link{z}, Size: 1e15})
	}
	paths := [][]*flow.Link{{x, y}, {x}, {z}, {y}}
	burst := make([]*flow.Flow, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range burst {
			f := n.AcquireFlow()
			f.Links, f.Size = paths[j%len(paths)], 1e15
			if j%3 == 0 {
				f.MaxRate = 1e6
			}
			n.Start(f)
			burst[j] = f
		}
		if err := e.RunUntil(e.Now()); err != nil {
			b.Fatal(err)
		}
		for _, f := range burst {
			n.Cancel(f)
			n.ReleaseFlow(f)
		}
	}
	b.StopTimer()
	e.Stop()
}

// TestFlowChurnZeroAllocs is the allocation guard for the churn hot path:
// with the Net's flow free list in play, a start+cancel cycle against a
// standing population must not allocate — in either link regime, nor for a
// burst of starts flushed at one instant. A nonzero AllocsPerOp here means
// something on the Start/flush/Cancel/timer path regressed.
func TestFlowChurnZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard skipped in -short")
	}
	for _, tc := range []struct {
		name string
		run  func(b *testing.B)
	}{
		{"disjoint", func(b *testing.B) { benchscen.FlowChurn(b, 100, false) }},
		{"shared", func(b *testing.B) { benchscen.FlowChurn(b, 100, true) }},
		{"burst", burstChurn},
	} {
		r := testing.Benchmark(tc.run)
		if a := r.AllocsPerOp(); a != 0 {
			t.Errorf("%s churn: %d allocs/op (%d B/op), want 0", tc.name, a, r.AllocedBytesPerOp())
		}
	}
}

// BenchmarkTransferComplete runs full flow lifecycles (start, completion
// sweep, callback) on a private link pair with a standing disjoint
// population, covering the settle/heap/reschedule path end to end.
func BenchmarkTransferComplete(b *testing.B) {
	e := sim.New()
	n := flow.NewNet(e)
	for i := 0; i < 100; i++ {
		l := flow.NewLink(fmt.Sprintf("bg%d", i), 1e9)
		n.Start(&flow.Flow{Links: []*flow.Link{l}, Size: 1e15})
	}
	out := flow.NewLink("out", 1e8)
	in := flow.NewLink("in", 1e8)
	path := []*flow.Link{out, in}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		n.Start(&flow.Flow{Links: path, Size: 1e6, OnDone: func() { done = true }})
		if err := e.RunUntil(e.Now() + 1); err != nil {
			b.Fatal(err)
		}
		if !done {
			b.Fatal("flow did not complete")
		}
	}
	b.StopTimer()
	e.Stop()
}

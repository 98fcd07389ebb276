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

// TestFlowChurnZeroAllocs is the allocation guard for the churn hot path:
// with the Net's flow free list in play, a start+cancel cycle against a
// standing population must not allocate — in either link regime. A nonzero
// AllocsPerOp here means something on the Start/Cancel/timer path regressed.
func TestFlowChurnZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard skipped in -short")
	}
	for _, tc := range []struct {
		name   string
		shared bool
	}{{"disjoint", false}, {"shared", true}} {
		r := testing.Benchmark(func(b *testing.B) { benchscen.FlowChurn(b, 100, tc.shared) })
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

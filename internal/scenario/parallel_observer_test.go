package scenario

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hybridmig/hybridmig/internal/cluster"
	"github.com/hybridmig/hybridmig/internal/trace"
)

// This file pins the trace-bus contract under WithParallel (DESIGN.md §16):
// observer callbacks are never invoked concurrently, every shard's events
// arrive in that shard's virtual-time order (so any single VM's event stream
// is time-sorted), and the per-VM event sequences are exactly the serial
// run's — only the cross-shard interleaving is merge-ordered.

// recordingObserver captures every event and detects overlapping deliveries:
// the CAS flag trips if two OnEvent calls are ever in flight at once, which
// the lockedObservers adapter must prevent.
type recordingObserver struct {
	in      atomic.Bool
	overlap atomic.Bool
	mu      sync.Mutex
	events  []trace.Event
}

func (r *recordingObserver) OnEvent(e trace.Event) {
	if !r.in.CompareAndSwap(false, true) {
		r.overlap.Store(true)
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
	r.in.Store(false)
}

// observedScenario is a deterministic four-component scenario with sampling,
// a global fabric-degrade fault, a link degradation and a partition, so the
// sharded run delivers shard 0's fabric fault and capacity events alongside
// every shard's own with observers attached.
func observedScenario(obs trace.Observer, parallel bool) *Scenario {
	const pairs = 4
	nodes := 2 * pairs
	set := NewSetup(ScaleSmall, nodes)
	set.Cluster.Testbed.FabricBandwidth = 4 * float64(nodes) * set.Cluster.Testbed.NICBandwidth
	opts := []Option{
		WithConfig(set.Cluster), WithPreseededImages(),
		WithObserver(obs), WithSampleInterval(0.5),
		WithFaults(
			FaultSpec{Kind: FaultFabricDegrade, At: 3, Factor: 0.5, Duration: 2},
			// Node 5 is shard-local index 1 in its component: its capacity
			// events exercise the link-name translation back to global ids.
			FaultSpec{Kind: FaultLinkDegrade, Node: 5, At: 2.5, Factor: 0.6, Duration: 1.5},
			// Node 3 is shard-local index 1 too: its partition fault event
			// must report the global node.
			FaultSpec{Kind: FaultPartition, Node: 3, At: 2.4, Duration: 1},
		),
	}
	if parallel {
		opts = append(opts, WithParallel(4))
	}
	s := New(opts...)
	for p := 0; p < pairs; p++ {
		name := fmt.Sprintf("vm%d", p)
		s.AddVM(VMSpec{Name: name, Node: 2 * p, Approach: cluster.OurApproach, Workload: Rewrite(nil)})
		s.MigrateAt(name, 2*p+1, 2+0.3*float64(p))
	}
	return s
}

// TestParallelObserverOrdering runs the sharded scenario and checks the
// delivery contract directly: no concurrent callbacks (run it under -race for
// the memory-model half of that claim), and a time-sorted stream per VM.
func TestParallelObserverOrdering(t *testing.T) {
	rec := &recordingObserver{}
	s := observedScenario(rec, true)
	plan := planOf(t, s)
	if plan == nil || len(plan.shards) != 4 {
		t.Fatalf("scenario did not shard into 4 components (plan=%v)", plan)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rec.overlap.Load() {
		t.Fatal("observer callbacks overlapped: lockedObservers failed to serialize delivery")
	}
	if len(rec.events) == 0 {
		t.Fatal("no events observed")
	}
	last := make(map[string]float64)
	for _, e := range rec.events {
		if e.Time > res.Clock {
			t.Fatalf("event at %v after final clock %v", e.Time, res.Clock)
		}
		if e.VM == "" {
			continue
		}
		if prev, ok := last[e.VM]; ok && e.Time < prev {
			t.Fatalf("vm %s: event time went backwards (%v after %v) — shard order not preserved",
				e.VM, e.Time, prev)
		}
		last[e.VM] = e.Time
	}
	if len(last) != 4 {
		t.Fatalf("events cover %d VMs, want 4", len(last))
	}
}

// TestParallelObserverEquivalence compares the event streams of the serial
// and sharded runs: per-VM lifecycle sequences must be identical event for
// event, and the VM-less events (fault injections, fabric capacity steps —
// emitted once, by shard 0) must form the same multiset. Degradation samples
// are the one shard-scoped stream: the serial sampler keeps sampling every VM
// until the last migration anywhere completes, while a shard stops when its
// own component is done — so a VM's parallel sample stream must be a
// non-empty prefix of its serial one (documented in DESIGN.md §16).
func TestParallelObserverEquivalence(t *testing.T) {
	run := func(parallel bool) *recordingObserver {
		rec := &recordingObserver{}
		if _, err := observedScenario(rec, parallel).Run(); err != nil {
			t.Fatalf("parallel=%t: %v", parallel, err)
		}
		return rec
	}
	serial, parallel := run(false), run(true)

	split := func(events []trace.Event) (map[string][]trace.Event, map[string][]trace.Event, []trace.Event) {
		byVM := make(map[string][]trace.Event)
		samples := make(map[string][]trace.Event)
		var global []trace.Event
		for _, e := range events {
			switch {
			case e.VM == "":
				global = append(global, e)
			case e.Kind == trace.KindSample:
				samples[e.VM] = append(samples[e.VM], e)
			default:
				byVM[e.VM] = append(byVM[e.VM], e)
			}
		}
		sort.Slice(global, func(i, j int) bool {
			a, b := global[i], global[j]
			if a.Time != b.Time {
				return a.Time < b.Time
			}
			if a.Kind != b.Kind {
				return a.Kind < b.Kind
			}
			if a.Value != b.Value {
				return a.Value < b.Value
			}
			return a.Detail < b.Detail
		})
		return byVM, samples, global
	}
	sVM, sSamples, sGlobal := split(serial.events)
	pVM, pSamples, pGlobal := split(parallel.events)

	if len(sVM) != len(pVM) {
		t.Fatalf("VM coverage differs: serial %d parallel %d", len(sVM), len(pVM))
	}
	for vm, se := range sVM {
		pe := pVM[vm]
		if !reflect.DeepEqual(se, pe) {
			n := len(se)
			if len(pe) < n {
				n = len(pe)
			}
			for i := 0; i < n; i++ {
				if se[i] != pe[i] {
					t.Fatalf("vm %s event %d differs:\nserial   %v\nparallel %v", vm, i, se[i], pe[i])
				}
			}
			t.Fatalf("vm %s: %d serial events vs %d parallel", vm, len(se), len(pe))
		}
	}
	for vm, pe := range pSamples {
		se := sSamples[vm]
		if len(pe) == 0 || len(pe) > len(se) {
			t.Fatalf("vm %s: %d parallel samples vs %d serial, want non-empty prefix", vm, len(pe), len(se))
		}
		if !reflect.DeepEqual(pe, se[:len(pe)]) {
			t.Fatalf("vm %s: parallel samples are not a prefix of the serial stream", vm)
		}
	}
	if !reflect.DeepEqual(sGlobal, pGlobal) {
		t.Fatalf("VM-less event multisets differ:\nserial   %v\nparallel %v", sGlobal, pGlobal)
	}
}

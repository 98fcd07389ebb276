package flow

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/hybridmig/hybridmig/internal/sim"
)

// This file covers the uncontended path: a flow that starts with every link
// of its path idle is rated without a fill and kept off the links' lists,
// sums and rate groups until something admits it. Admission must leave
// exactly the state an ordinary start, and the fills since, would have.

// flowState is the allocation state of one flow that outlives a fill;
// scratch fields and the completion-heap slot are left out.
type flowState struct {
	Seq                                 uint64
	Grouped                             bool
	Rate, Remaining, CompT, LastSettle  float64
	AnchorT, AnchorRem, FinishP, MinCap float64
	Pos                                 [maxPathLinks]int32
}

// linkState is the allocation state of one link.
type linkState struct {
	UBSum                 float64
	UBInf                 int
	Listed, Members       []uint64
	PAnchor, GAnchorT, GR float64
	Bytes                 float64
}

// netState reads the state of every active flow and of the given links
// without settling anything.
func netState(n *Net, links []*Link) (fs []flowState, ls []linkState) {
	for _, f := range n.flows {
		fs = append(fs, flowState{
			Seq: f.seq, Grouped: f.group != nil,
			Rate: f.rate, Remaining: f.remaining, CompT: f.compT, LastSettle: f.lastSettle,
			AnchorT: f.anchorT, AnchorRem: f.anchorRem, FinishP: f.finishP, MinCap: f.minCap,
			Pos: f.pos,
		})
	}
	for _, l := range links {
		s := linkState{UBSum: l.ubSum, UBInf: l.ubInf, Bytes: l.bytes}
		for _, f := range l.flows {
			s.Listed = append(s.Listed, f.seq)
		}
		if g := l.group; g != nil && len(g.members) > 0 {
			for _, f := range g.members {
				s.Members = append(s.Members, f.seq)
			}
			s.PAnchor, s.GAnchorT, s.GR = g.pAnchor, g.anchorT, g.rate
		}
		ls = append(ls, s)
	}
	return fs, ls
}

// TestAdmitMatchesOrdinaryStart starts a flow alone on an idle path, once
// on the uncontended path and once on the ordinary one, admits the first
// either before its start instant's flush or a second and a half after it,
// and requires the two nets to hold the same state; both then run to the
// end and must complete the flow at the same instant with the same byte
// counts. The paths cover a rate group on a single link and on the
// narrowest link of a disk/NIC/fabric/NIC path, a flow loose on two equal
// links, a capped flow, and a capped flow with no links.
func TestAdmitMatchesOrdinaryStart(t *testing.T) {
	paths := []struct {
		name    string
		caps    []float64
		maxRate float64
	}{
		{"one link", []float64{100}, 0},
		{"disk/nic/fabric/nic", []float64{55, 117, 8000, 117}, 0},
		{"two equal links", []float64{80, 80}, 0},
		{"capped", []float64{100, 150}, 30},
		{"no links", nil, 40},
	}
	for _, p := range paths {
		for _, flushed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/flushed=%t", p.name, flushed), func(t *testing.T) {
				type outcome struct {
					flows  []flowState
					links  []linkState
					doneAt float64
					bytes  []float64
				}
				run := func(ordinary bool) outcome {
					e := sim.New()
					defer e.Stop()
					n := NewNet(e)
					n.ordinary = ordinary
					var links []*Link
					for i, c := range p.caps {
						links = append(links, NewLink(fmt.Sprintf("l%d", i), c))
					}
					var out outcome
					f := &Flow{Links: links, Size: 1000, MaxRate: p.maxRate, OnDone: func() { out.doneAt = e.Now() }}
					n.Start(f)
					if flushed {
						// An unrelated start moves the net's last event, so
						// the read settles the flow partway.
						other := NewLink("other", 10)
						e.At(1.5, func() { n.Start(&Flow{Links: []*Link{other}, Size: 1e6}) })
						if err := e.RunUntil(1.5); err != nil {
							t.Fatal(err)
						}
						f.Remaining()
					}
					if f.solo == ordinary {
						t.Fatalf("ordinary=%t: flow uncontended=%t", ordinary, f.solo)
					}
					// The unrelated flow is still pending: this admits it
					// before the flush.
					for _, g := range n.flows {
						if g.solo {
							n.admit(g)
						}
					}
					out.flows, out.links = netState(n, links)
					if err := e.RunUntil(math.Inf(1)); err != nil {
						t.Fatal(err)
					}
					for _, l := range links {
						out.bytes = append(out.bytes, l.Bytes())
					}
					return out
				}
				got, want := run(false), run(true)
				if !reflect.DeepEqual(got.flows, want.flows) {
					t.Fatalf("flows after admission:\n got %+v\nwant %+v", got.flows, want.flows)
				}
				if !reflect.DeepEqual(got.links, want.links) {
					t.Fatalf("links after admission:\n got %+v\nwant %+v", got.links, want.links)
				}
				if got.doneAt != want.doneAt || !reflect.DeepEqual(got.bytes, want.bytes) {
					t.Fatalf("completed at %v with link bytes %v, ordinary at %v with %v",
						got.doneAt, got.bytes, want.doneAt, want.bytes)
				}
			})
		}
	}
}

// TestUncontendedStats: flows alone on their links are rated without a
// fill and counted as uncontended when a sweep retires them; a flow that
// another start joins is admitted, filled with the joiner, refilled when
// the joiner leaves, and retired as an ordinary flow.
func TestUncontendedStats(t *testing.T) {
	e := sim.New()
	defer e.Stop()
	n := NewNet(e)
	a, b := NewLink("a", 100), NewLink("b", 100)
	for i := 0; i < 3; i++ {
		n.Start(&Flow{Links: []*Link{NewLink("private", 100)}, Size: 100})
	}
	n.Start(&Flow{Links: []*Link{a, b}, Size: 100})
	e.At(0.5, func() { n.Start(&Flow{Links: []*Link{b}, Size: 10}) })
	if err := e.RunUntil(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	// The three private flows retire together at t=1, three of the four
	// heap entries, through a rebuild.
	want := Stats{Starts: 5, Flushes: 2, Fills: 2, Collected: 3, Retired: 5, Rebuilds: 1, Uncontended: 3}
	if got := n.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if a.ActiveFlows() != 0 || a.solo != nil || b.solo != nil {
		t.Fatalf("links still hold flows after the run")
	}
}

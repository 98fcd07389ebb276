package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/hybridmig/hybridmig/internal/sim"
)

// This file is the allocation property suite for the rate-group fill: after
// every operation of a randomized schedule, the incremental component-scoped
// recompute (with its rate-group aggregation and transparency shortcuts) is
// compared flow-by-flow against a from-scratch global max-min waterfilling
// that knows nothing about components, groups, or transparency. Max-min fair
// allocations are unique, so any divergence beyond float tolerance means the
// incremental machinery dropped a constraint or resharing step.

// referenceMaxMin computes the global max-min fair allocation from scratch by
// classic waterfilling: repeatedly find the tightest constraint — the
// smallest per-link fair share or the smallest unfrozen rate cap — and freeze
// the flows it binds. O(flows·links) per round, O(rounds) ≤ flows; fine for a
// test oracle.
func referenceMaxMin(n *Net) map[*Flow]float64 {
	rates := make(map[*Flow]float64, len(n.flows))
	frozen := make(map[*Flow]bool, len(n.flows))
	// Each link's crossings, one per occurrence on a flow's path.
	links := make(map[*Link][]*Flow)
	for _, f := range n.flows {
		for _, l := range f.Links {
			links[l] = append(links[l], f)
		}
	}
	// share returns l's fair share among its unfrozen flows and their count.
	share := func(l *Link) (float64, int) {
		avail := l.Capacity
		cnt := 0
		for _, f := range links[l] {
			if frozen[f] {
				avail -= rates[f]
			} else {
				cnt++
			}
		}
		if avail < 0 {
			avail = 0
		}
		return avail / float64(cnt), cnt
	}
	remaining := len(n.flows)
	for remaining > 0 {
		minShare := math.Inf(1)
		for l := range links {
			if s, cnt := share(l); cnt > 0 && s < minShare {
				minShare = s
			}
		}
		minCap := math.Inf(1)
		for _, f := range n.flows {
			if !frozen[f] && f.MaxRate > 0 && f.MaxRate < minCap {
				minCap = f.MaxRate
			}
		}
		progress := false
		if minCap <= minShare {
			// Rate caps bind first: freeze every flow at the tightest cap.
			for _, f := range n.flows {
				if !frozen[f] && f.MaxRate > 0 && f.MaxRate <= minCap*(1+1e-12) {
					rates[f] = f.MaxRate
					frozen[f] = true
					remaining--
					progress = true
				}
			}
		} else if math.IsInf(minShare, 1) {
			// No binding constraint left: only linkless capped flows could
			// remain, and those were frozen above — nothing should reach here.
			break
		} else {
			// Saturate every bottleneck link at its own share.
			for l := range links {
				s, cnt := share(l)
				if cnt == 0 || s > minShare*(1+1e-9) {
					continue
				}
				for _, f := range links[l] {
					if !frozen[f] {
						rates[f] = s
						frozen[f] = true
						remaining--
						progress = true
					}
				}
			}
		}
		if !progress {
			panic("referenceMaxMin: no progress")
		}
	}
	return rates
}

// checkRates compares every active flow's production rate against the
// waterfilling oracle within relative tolerance.
func checkRates(t *testing.T, n *Net, op string) {
	t.Helper()
	want := referenceMaxMin(n)
	for _, f := range n.flows {
		got := f.Rate()
		w := want[f]
		tol := 1e-6 * math.Max(math.Abs(w), 1)
		if math.Abs(got-w) > tol {
			grouped := f.group != nil
			t.Fatalf("after %s: flow seq%d rate %v, waterfilling oracle %v (grouped=%t)",
				op, f.seq, got, w, grouped)
		}
	}
}

// TestGroupFillMatchesWaterfilling drives randomized shared/capped/
// transparent/SetCapacity schedules, including bursts of starts at one
// instant, and pins the group-based incremental allocation to the
// from-scratch oracle after every operation.
func TestGroupFillMatchesWaterfilling(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := sim.New()
			n := NewNet(e)

			nLinks := 3 + rng.Intn(6)
			links := make([]*Link, nLinks)
			for i := range links {
				links[i] = NewLink(fmt.Sprintf("l%d", i), (50+150*rng.Float64())*1e6)
			}
			// hub concentrates flows so rate groups actually form: most
			// single-link flows land on it and share one bottleneck.
			hub := links[0]
			// Private links only bursts use, so a burst also starts flows in
			// components of their own.
			private := []*Link{NewLink("p0", 80e6), NewLink("p1", 120e6)}

			ops := 150
			for op := 0; op < ops; op++ {
				var desc string
				switch k := rng.Intn(14); {
				case k < 4: // start a single-link hub flow (group candidate)
					f := &Flow{Tag: TagStoragePush, Links: []*Link{hub}, Size: 1e6 + rng.Float64()*1e11}
					n.Start(f)
					desc = fmt.Sprintf("op%d start-hub seq%d", op, f.seq)
				case k < 7: // start a multi-link and/or capped flow
					f := &Flow{Tag: TagStoragePull}
					for _, i := range rng.Perm(nLinks)[:1+rng.Intn(3)] {
						f.Links = append(f.Links, links[i])
					}
					if rng.Intn(2) == 0 {
						f.MaxRate = (5 + 90*rng.Float64()) * 1e6
					}
					f.Size = 1e6 + rng.Float64()*1e11
					n.Start(f)
					desc = fmt.Sprintf("op%d start seq%d", op, f.seq)
				case k < 9: // cancel a random active flow
					if len(n.flows) == 0 {
						continue
					}
					f := n.flows[rng.Intn(len(n.flows))]
					desc = fmt.Sprintf("op%d cancel seq%d", op, f.seq)
					n.Cancel(f)
				case k < 11: // change a link capacity (both directions)
					l := links[rng.Intn(nLinks)]
					c := (20 + 280*rng.Float64()) * 1e6
					desc = fmt.Sprintf("op%d setcap %s %.0f", op, l.Name, c)
					n.SetCapacity(l, c)
				case k >= 12: // a burst of 2-16 starts at one instant
					burst := 2 + rng.Intn(15)
					for i := 0; i < burst; i++ {
						f := &Flow{Tag: TagPFS, Size: 1e6 + rng.Float64()*1e11}
						switch rng.Intn(4) {
						case 0: // grouped on the hub
							f.Links = []*Link{hub}
						case 1: // shared and maybe capped
							for _, j := range rng.Perm(nLinks)[:1+rng.Intn(3)] {
								f.Links = append(f.Links, links[j])
							}
							if rng.Intn(2) == 0 {
								f.MaxRate = (5 + 90*rng.Float64()) * 1e6
							}
						case 2: // capped on one link: stays loose
							f.Links = []*Link{links[rng.Intn(nLinks)]}
							f.MaxRate = (5 + 90*rng.Float64()) * 1e6
						default: // a disjoint component
							f.Links = []*Link{private[rng.Intn(len(private))]}
						}
						n.Start(f)
					}
					// Either the flush event runs, or the rate check's first
					// read flushes.
					if rng.Intn(2) == 0 {
						if err := e.RunUntil(e.Now()); err != nil {
							t.Fatal(err)
						}
					}
					desc = fmt.Sprintf("op%d burst of %d", op, burst)
				default: // advance time; completions fire and reshare
					fired := false
					e.After(0.2+rng.Float64()*3, func() { fired = true })
					for !fired && e.Step() {
					}
					desc = fmt.Sprintf("op%d advance to %.3f", op, e.Now())
				}
				checkRates(t, n, desc)
			}
			e.Stop()
		})
	}
}

// TestGroupRebaseMatchesWaterfilling drives two rate groups' progress past
// groupRebaseP: on each of two 1 GB/s hubs one member runs for 1,500 s,
// then a burst of 40 equal members joins, and the burst's fill rebases the
// group (finishP and pAnchor shift back toward zero). The two bursts then
// complete in one sweep: their representatives are two due entries of a
// four-entry completion heap (2·⌈log₂ 4⌉ ≥ 4), so the sweep rebuilds the
// heap and retires the co-due members behind them as a batch. Rates are
// checked against the waterfilling oracle after every event, and the run
// must match one that retires one root at a time: the same completions at
// the same instants and bit-identical byte counts.
func TestGroupRebaseMatchesWaterfilling(t *testing.T) {
	run := func(oneByOne bool) ([]float64, Stats) {
		e := sim.New()
		n := NewNet(e)
		n.oneByOne = oneByOne
		hubs := []*Link{NewLink("hub0", 1e9), NewLink("hub1", 1e9)}
		var log []float64
		done := func() { log = append(log, e.Now()) }
		for _, hub := range hubs {
			n.Start(&Flow{Links: []*Link{hub}, Size: 3e12, OnDone: done})
			// A capped loose flow shares the hub, so the group's rate is
			// the hub's residual share.
			n.Start(&Flow{Links: []*Link{hub}, Size: 1e13, MaxRate: 1e8, OnDone: done})
		}
		e.At(1500, func() {
			for _, hub := range hubs {
				g := hub.group
				if g.pAnchor != 0 || g.rate != 9e8 {
					t.Fatalf("before the burst: pAnchor %v rate %v, want 0 and 9e8", g.pAnchor, g.rate)
				}
				for i := 0; i < 40; i++ {
					n.Start(&Flow{Links: []*Link{hub}, Size: 1e9, OnDone: done})
				}
			}
			checkRates(t, n, "burst")
			for _, hub := range hubs {
				if g := hub.group; g.pAnchor != 0 || g.members[0].finishP >= groupRebaseP {
					t.Fatalf("after the burst: pAnchor %v, representative finishP %v: no rebase",
						g.pAnchor, g.members[0].finishP)
				}
			}
		})
		e.At(1600, func() {
			if st := n.Stats(); !oneByOne && (st.Retired != 80 || st.Rebuilds != 1) {
				t.Fatalf("after the bursts: %d flows retired in %d rebuilds, want 80 in 1", st.Retired, st.Rebuilds)
			}
		})
		for e.Step() {
			checkRates(t, n, fmt.Sprintf("t=%v", e.Now()))
			checkCompletionHeap(t, n)
		}
		for _, hub := range hubs {
			log = append(log, hub.Bytes())
		}
		log = append(log, n.BytesByTag(TagOther))
		return log, n.Stats()
	}
	batch, st := run(false)
	ref, _ := run(true)
	if len(batch) != 87 || len(ref) != len(batch) {
		t.Fatalf("%d completions and byte counts batched, %d one at a time, want 87", len(batch), len(ref))
	}
	for i := range batch {
		if math.Float64bits(batch[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("entry %d: %v batched, %v one at a time", i, batch[i], ref[i])
		}
	}
	for i := 1; i < 80; i++ {
		if batch[i] != batch[0] {
			t.Fatalf("burst completion %d at %v, want the first one's %v", i, batch[i], batch[0])
		}
	}
	// The bursts, then the two long members, then the two capped flows.
	if st.Retired != 84 || st.Rebuilds != 3 {
		t.Fatalf("%d flows retired in %d rebuilds, want 84 in 3", st.Retired, st.Rebuilds)
	}
}

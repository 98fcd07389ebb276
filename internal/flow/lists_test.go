package flow

import (
	"fmt"
	"testing"
	"unsafe"

	"github.com/hybridmig/hybridmig/internal/sim"
)

// This file covers the loose lists' O(1) removal: each flow records its
// slot on every link that lists it, and removal moves the list's last entry
// into the hole exactly as the former scan-and-swap removal did.

// TestFlowSizeClass pins Flow inside the runtime's 240-byte allocation size
// class: one byte more and every flow allocation rounds up to 256 bytes.
func TestFlowSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Flow{}); sz > 240 {
		t.Fatalf("Flow is %d bytes, want at most 240 (the 240-byte size class)", sz)
	}
}

// TestStartRejectsLongPath: a path of more links than a flow has slots for
// is a bug in the caller, reported like an invalid size.
func TestStartRejectsLongPath(t *testing.T) {
	n := NewNet(sim.New())
	path := make([]*Link, maxPathLinks+1)
	for i := range path {
		path[i] = NewLink(fmt.Sprintf("l%d", i), 100)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Start accepted a path of 6 links")
		}
	}()
	n.Start(&Flow{Links: path, Size: 1})
}

// listModel replays every removal from a loose list, in order, with the
// former removal: scan the list for the flow's first listing and move the
// last entry into the hole. Appends go to the end of a list and nothing
// else removes, so before each removal and each check the model first
// confirms that it is a prefix of the link's list and then adopts the
// entries appended since.
type listModel struct {
	lists map[*Link][]*Flow
	err   string // the first mismatch found inside a removal
}

func (m *listModel) sync(l *Link, where string) {
	fl := m.lists[l]
	if len(l.flows) < len(fl) {
		m.fail(fmt.Sprintf("%s: link %s lists %d flows, model %d", where, l.Name, len(l.flows), len(fl)))
		return
	}
	for i, f := range fl {
		if l.flows[i] != f {
			m.fail(fmt.Sprintf("%s: link %s entry %d is seq%d, model seq%d", where, l.Name, i, l.flows[i].seq, f.seq))
			return
		}
	}
	m.lists[l] = append(fl, l.flows[len(fl):]...)
}

func (m *listModel) fail(msg string) {
	if m.err == "" {
		m.err = msg
	}
}

func (m *listModel) unlist(l *Link, f *Flow) {
	m.sync(l, "before a removal")
	fl := m.lists[l]
	for i, g := range fl {
		if g == f {
			last := len(fl) - 1
			fl[i] = fl[last]
			fl[last] = nil
			m.lists[l] = fl[:last]
			return
		}
	}
}

// checkLists compares every link's loose list with the model element by
// element, and checks that every active flow's recorded slots index back to
// it: one slot per listing, and -1 only on its rate group's home link.
func checkLists(t *testing.T, n *Net, links []*Link, m *listModel, where string) {
	t.Helper()
	for _, l := range links {
		m.sync(l, where)
		if m.err != "" {
			t.Fatal(m.err)
		}
		if len(l.flows) != len(m.lists[l]) {
			t.Fatalf("%s: link %s lists %d flows, model %d", where, l.Name, len(l.flows), len(m.lists[l]))
		}
	}
	for _, f := range n.flows {
		for k, l := range f.Links {
			p := f.pos[k]
			if p < 0 {
				if f.group == nil || f.group.link != l {
					t.Fatalf("%s: seq%d has no slot on %s, which is not its group's home link", where, f.seq, l.Name)
				}
				continue
			}
			if int(p) >= len(l.flows) || l.flows[p] != f {
				t.Fatalf("%s: seq%d slot %d on %s does not index back to it", where, f.seq, p, l.Name)
			}
			listed, slots := 0, 0
			for _, g := range l.flows {
				if g == f {
					listed++
				}
			}
			for j, lj := range f.Links {
				if lj == l && f.pos[j] >= 0 {
					slots++
				}
			}
			if listed != slots {
				t.Fatalf("%s: seq%d is listed %d times on %s but holds %d slots", where, f.seq, listed, l.Name, slots)
			}
		}
	}
}

// listCoverage counts the rate-group moves a schedule made: an active flow
// joining a group or leaving one between two steps.
type listCoverage struct{ joins, leaves int }

// runLinkListSchedule drives a Net through starts, cancels, completions
// and capacity changes decoded from data, with paths of 1-5 links drawn
// with repetition from four NICs, a fabric and a disk. Uncapped flows
// through different NICs group on their NIC while the fabric stays
// transparent; a third of them, or a lower fabric capacity, turns it
// opaque and moves them out of their groups, and a departure or a higher
// capacity moves them back. After every step the loose lists must match
// the model.
func runLinkListSchedule(t *testing.T, data []byte) listCoverage {
	e := sim.New()
	defer e.Stop()
	n := NewNet(e)
	links := []*Link{
		NewLink("nic0", 100), NewLink("nic1", 100), NewLink("nic2", 100), NewLink("nic3", 100),
		NewLink("fabric", 250), NewLink("disk", 60),
	}
	m := &listModel{lists: map[*Link][]*Flow{}}
	n.unlistHook = m.unlist
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var cov listCoverage
	groups := map[*Flow]*rateGroup{}
	for step := 0; len(data) > 0 && step < 128; step++ {
		switch op := next() % 6; op {
		case 0, 1, 2: // start a flow at the current instant
			sel := next()
			f := &Flow{Size: 1 + float64(next())*8}
			for i := 0; i <= int(sel%5); i++ {
				f.Links = append(f.Links, links[int(next())%len(links)])
			}
			if sel&0x80 != 0 {
				f.MaxRate = 5 + float64(sel%32)*3
			}
			n.Start(f)
		case 3: // cancel an active flow
			if arg := next(); len(n.flows) > 0 {
				n.Cancel(n.flows[int(arg)%len(n.flows)])
			}
		case 4: // change a capacity
			l := links[int(next())%len(links)]
			n.SetCapacity(l, 20+float64(next())*4)
		default: // advance the clock: the flush runs and completions fire
			if err := e.RunUntil(e.Now() + float64(next())/32); err != nil {
				t.Fatal(err)
			}
		}
		checkLists(t, n, links, m, fmt.Sprintf("step %d", step))
		for _, f := range n.flows {
			if g, seen := groups[f]; seen && g != f.group {
				if g == nil {
					cov.joins++
				} else {
					cov.leaves++
				}
			}
			groups[f] = f.group
		}
	}
	for len(n.flows) > 0 {
		n.Cancel(n.flows[len(n.flows)-1])
	}
	checkLists(t, n, links, m, "drained")
	for _, l := range links {
		if len(l.flows) != 0 {
			t.Fatalf("drained net still lists %d flows on %s", len(l.flows), l.Name)
		}
	}
	return cov
}

// FuzzLinkLists drives runLinkListSchedule from fuzzer bytes. The seed
// corpus is under testdata/fuzz/FuzzLinkLists.
func FuzzLinkLists(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runLinkListSchedule(t, data)
	})
}

// TestLinkListsExerciseGroupMoves keeps the fuzz schedule's teeth: long
// pseudo-random schedules must move flows both into and out of rate
// groups, so the removals on group joins and the appends on group leaves
// are compared against the model too.
func TestLinkListsExerciseGroupMoves(t *testing.T) {
	var total listCoverage
	x := uint32(1)
	for seed := 0; seed < 20; seed++ {
		data := make([]byte, 400)
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x)
		}
		cov := runLinkListSchedule(t, data)
		total.joins += cov.joins
		total.leaves += cov.leaves
	}
	if total.joins == 0 || total.leaves == 0 {
		t.Fatalf("schedules made %d group joins and %d leaves, want both", total.joins, total.leaves)
	}
	t.Logf("%d group joins, %d leaves", total.joins, total.leaves)
}

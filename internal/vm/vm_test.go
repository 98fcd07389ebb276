package vm

import (
	"testing"

	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

func newTestVM(eng *sim.Engine) *VM {
	tb := params.DefaultTestbed()
	tb.NetLatency = 0
	tb.DiskLatency = 0
	c := fabric.NewCluster(eng, 1, tb)
	mem := NewMemory(1000, 10) // 100 groups
	return New(eng, "vm0", c.Nodes[0], mem)
}

func TestAllocAndNonZero(t *testing.T) {
	m := NewMemory(1000, 10)
	r1 := m.Alloc(250, true)
	if r1.Groups() != 25 {
		t.Fatalf("groups = %d, want 25", r1.Groups())
	}
	if m.NonZeroBytes() != 250 {
		t.Fatalf("nonzero = %d, want 250", m.NonZeroBytes())
	}
	r2 := m.Alloc(100, false)
	if r2.First != 25 {
		t.Fatalf("second region starts at %d, want 25", r2.First)
	}
	if m.NonZeroBytes() != 250 {
		t.Fatal("untouched alloc marked non-zero")
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := NewMemory(100, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Alloc(200, false)
}

func TestDirtySeqWraps(t *testing.T) {
	m := NewMemory(1000, 10)
	r := m.Alloc(50, false) // 5 groups
	cur := m.DirtySeq(r, 30, r.First)
	if cur != r.First+3 {
		t.Fatalf("cursor = %d, want %d", cur, r.First+3)
	}
	if m.DirtyBytes(0) != 30 {
		t.Fatalf("dirty = %d, want 30", m.DirtyBytes(0))
	}
	// Dirtying more than the region saturates it.
	m.DirtySeq(r, 1000, cur)
	if m.DirtyBytes(0) != 50 {
		t.Fatalf("dirty = %d, want region size 50", m.DirtyBytes(0))
	}
}

func TestDirtierRate(t *testing.T) {
	eng := sim.New()
	m := NewMemory(10000, 10)
	r := m.Alloc(5000, false) // 500 groups
	d := m.NewDirtier(r, 100) // 100 B/s
	d.SetActive(true, 0)
	eng.At(3, func() {
		if got := m.DirtyBytes(3); got != 300 {
			t.Errorf("dirty after 3s = %d, want 300", got)
		}
	})
	eng.At(5, func() {
		// CollectDirty drains the set.
		if got := m.CollectDirty(5); got != 500 {
			t.Errorf("collect = %d, want 500", got)
		}
		if got := m.DirtyBytes(5); got != 0 {
			t.Errorf("dirty after collect = %d, want 0", got)
		}
	})
	eng.At(6, func() {
		// One more second of dirtying after the collection.
		if got := m.DirtyBytes(6); got != 100 {
			t.Errorf("dirty = %d, want 100", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtierWorkingSetBound(t *testing.T) {
	eng := sim.New()
	m := NewMemory(10000, 10)
	r := m.Alloc(100, false)   // 10 groups = 100 bytes of working set
	d := m.NewDirtier(r, 1000) // much faster than the set size
	d.SetActive(true, 0)
	eng.At(10, func() {
		if got := m.DirtyBytes(10); got != 100 {
			t.Errorf("dirty = %d, want working-set bound 100", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtierInactiveNoDirty(t *testing.T) {
	eng := sim.New()
	m := NewMemory(1000, 10)
	r := m.Alloc(500, false)
	d := m.NewDirtier(r, 100)
	d.SetActive(true, 0)
	eng.At(2, func() { d.SetActive(false, 2) })
	eng.At(10, func() {
		if got := m.DirtyBytes(10); got != 200 {
			t.Errorf("dirty = %d, want 200 (only while active)", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPauseFreezesDirtying(t *testing.T) {
	eng := sim.New()
	v := newTestVM(eng)
	r := v.Mem.Alloc(500, false)
	d := v.Mem.NewDirtier(r, 100)
	d.SetActive(true, 0)
	eng.At(1, func() { v.Pause() })
	eng.At(3, func() { v.Resume() })
	eng.At(5, func() {
		// Active 0-1 and 3-5: 300 bytes.
		if got := v.Mem.DirtyBytes(5); got != 300 {
			t.Errorf("dirty = %d, want 300", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := v.TotalDowntime(); got != 2 {
		t.Fatalf("downtime = %v, want 2", got)
	}
	if v.Downtimes() != 1 {
		t.Fatalf("downtimes = %d, want 1", v.Downtimes())
	}
}

func TestExecStretchesOverPause(t *testing.T) {
	eng := sim.New()
	v := newTestVM(eng)
	var doneAt sim.Time
	eng.Go("guest", func(p *sim.Proc) {
		v.Exec(p, 10)
		doneAt = p.Now()
	})
	eng.At(4, func() { v.Pause() })
	eng.At(6, func() { v.Resume() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 12 {
		t.Fatalf("Exec finished at %v, want 12 (10 cpu + 2 downtime)", doneAt)
	}
}

func TestExecMultiplePauses(t *testing.T) {
	eng := sim.New()
	v := newTestVM(eng)
	var doneAt sim.Time
	eng.Go("guest", func(p *sim.Proc) {
		v.Exec(p, 10)
		doneAt = p.Now()
	})
	for i := 0; i < 3; i++ {
		at := sim.Time(2 + 3*i)
		eng.At(at, func() { v.Pause() })
		eng.At(at+1, func() { v.Resume() })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 13 {
		t.Fatalf("Exec finished at %v, want 13 (10 cpu + 3 downtime)", doneAt)
	}
}

func TestCheckPauseBlocksWhilePaused(t *testing.T) {
	eng := sim.New()
	v := newTestVM(eng)
	var passedAt sim.Time
	v.Pause()
	eng.Go("guest", func(p *sim.Proc) {
		v.CheckPause(p)
		passedAt = p.Now()
	})
	eng.At(5, func() { v.Resume() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if passedAt != 5 {
		t.Fatalf("passed at %v, want 5", passedAt)
	}
}

func TestMoveTo(t *testing.T) {
	eng := sim.New()
	tb := params.DefaultTestbed()
	c := fabric.NewCluster(eng, 2, tb)
	mem := NewMemory(1000, 10)
	v := New(eng, "vm", c.Nodes[0], mem)
	v.MoveTo(c.Nodes[1])
	if v.Node != c.Nodes[1] {
		t.Fatal("MoveTo did not rehome the VM")
	}
}

func TestCollectDirtyAfterPauseDuringDowntime(t *testing.T) {
	// The hypervisor's final round: pause, then collect. Dirtying between
	// pause and collect must be zero.
	eng := sim.New()
	v := newTestVM(eng)
	r := v.Mem.Alloc(500, false)
	d := v.Mem.NewDirtier(r, 100)
	d.SetActive(true, 0)
	eng.At(2, func() {
		v.Pause()
		if got := v.Mem.CollectDirty(2); got != 200 {
			t.Errorf("collect at pause = %d, want 200", got)
		}
	})
	eng.At(4, func() {
		if got := v.Mem.CollectDirty(4); got != 0 {
			t.Errorf("collect during pause = %d, want 0", got)
		}
		v.Resume()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

package chunk

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGeometryBasics(t *testing.T) {
	g := NewGeometry(1000, 256)
	if g.Chunks() != 4 {
		t.Fatalf("Chunks = %d, want 4", g.Chunks())
	}
	if g.ChunkOf(0) != 0 || g.ChunkOf(255) != 0 || g.ChunkOf(256) != 1 || g.ChunkOf(999) != 3 {
		t.Fatal("ChunkOf wrong")
	}
	// Final chunk is short.
	if got := g.ChunkLen(3); got != 1000-3*256 {
		t.Fatalf("final chunk len = %d", got)
	}
}

func TestGeometrySpan(t *testing.T) {
	g := NewGeometry(1024, 256)
	first, last := g.Span(Range{Off: 100, Len: 300})
	if first != 0 || last != 1 {
		t.Fatalf("span = [%d,%d], want [0,1]", first, last)
	}
	first, last = g.Span(Range{Off: 256, Len: 256})
	if first != 1 || last != 1 {
		t.Fatalf("span = [%d,%d], want [1,1]", first, last)
	}
	first, last = g.Span(Range{Off: 0, Len: 1024})
	if first != 0 || last != 3 {
		t.Fatalf("span = [%d,%d], want [0,3]", first, last)
	}
}

// TestGeometrySpanNonPowerOfTwo runs Span and ChunkOf on the division path:
// a 3,000-byte chunk is not a power of two, so no shift applies.
func TestGeometrySpanNonPowerOfTwo(t *testing.T) {
	g := NewGeometry(10000, 3000)
	if g.div.pow2 {
		t.Fatal("a 3000-byte chunk took the shift path")
	}
	for _, c := range []struct {
		r           Range
		first, last Idx
	}{
		{Range{Off: 0, Len: 1}, 0, 0},
		{Range{Off: 2999, Len: 2}, 0, 1},
		{Range{Off: 3000, Len: 3000}, 1, 1},
		{Range{Off: 5999, Len: 4001}, 1, 3},
	} {
		if first, last := g.Span(c.r); first != c.first || last != c.last {
			t.Errorf("Span(%+v) = [%d,%d], want [%d,%d]", c.r, first, last, c.first, c.last)
		}
	}
	if g.ChunkOf(8999) != 2 || g.ChunkOf(9000) != 3 {
		t.Fatalf("ChunkOf(8999), ChunkOf(9000) = %d, %d; want 2, 3", g.ChunkOf(8999), g.ChunkOf(9000))
	}
}

// TestDivisor checks the shift and the division path against the / operator.
func TestDivisor(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 4096, 4095, 1 << 20, 1<<20 + 1, 1000} {
		d := NewDivisor(n)
		if d.pow2 != (n&(n-1) == 0) {
			t.Fatalf("NewDivisor(%d).pow2 = %v", n, d.pow2)
		}
		for _, x := range []int64{0, 1, n - 1, n, n + 1, 3*n - 1, 1<<40 + 12345} {
			if got := d.Div(x); got != x/n {
				t.Fatalf("Div(%d) by %d = %d, want %d", x, n, got, x/n)
			}
		}
	}
}

func TestGeometryClip(t *testing.T) {
	g := NewGeometry(1000, 256)
	r := Range{Off: 100, Len: 700} // [100, 800): chunks 0..3
	for _, c := range []struct {
		first, last Idx
		want        Range
	}{
		{0, 0, Range{Off: 100, Len: 156}}, // head clipped at r's start
		{1, 2, Range{Off: 256, Len: 512}}, // run wholly inside r
		{3, 3, Range{Off: 768, Len: 32}},  // tail clipped at r's end
		{0, 3, r},                         // run covers r
	} {
		if got := g.Clip(r, c.first, c.last); got != c.want {
			t.Errorf("Clip(%v, %d, %d) = %v, want %v", r, c.first, c.last, got, c.want)
		}
	}
	if got := g.Clip(Range{Off: 0, Len: 10}, 2, 3); got.Len != 0 {
		t.Errorf("disjoint Clip = %v, want zero length", got)
	}
}

// TestGeometryForEachRun: the runs come in order, each as one byte range,
// and a run ending on the short last chunk ends at the image's end.
func TestGeometryForEachRun(t *testing.T) {
	g := NewGeometry(1000, 256) // chunks 0..3, the last 232 bytes
	s := NewSet(g.Chunks())
	s.Add(0)
	s.AddRange(2, 3)
	var got []Range
	g.ForEachRun(s, func(off, length int64) { got = append(got, Range{Off: off, Len: length}) })
	if want := []Range{{Off: 0, Len: 256}, {Off: 512, Len: 488}}; !slices.Equal(got, want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	g.ForEachRun(NewSet(g.Chunks()), func(off, length int64) { t.Fatalf("empty set reported run [%d,+%d)", off, length) })
}

func TestFullyCovers(t *testing.T) {
	g := NewGeometry(1024, 256)
	if !g.FullyCovers(Range{Off: 0, Len: 512}, 0) || !g.FullyCovers(Range{Off: 0, Len: 512}, 1) {
		t.Fatal("full coverage not detected")
	}
	if g.FullyCovers(Range{Off: 1, Len: 511}, 0) {
		t.Fatal("partial head coverage treated as full")
	}
	if g.FullyCovers(Range{Off: 0, Len: 511}, 1) {
		t.Fatal("partial tail coverage treated as full")
	}
	// Short final chunk: covering its actual bytes counts as full.
	g2 := NewGeometry(1000, 256)
	if !g2.FullyCovers(Range{Off: 768, Len: 232}, 3) {
		t.Fatal("short final chunk full coverage not detected")
	}
}

// TestSpanRoundTrip: every chunk in a range's span overlaps the range, and
// chunks outside do not.
func TestSpanRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int64(1 + rng.Intn(100000))
		cs := int64(1 + rng.Intn(1000))
		g := NewGeometry(size, cs)
		off := rng.Int63n(size)
		ln := 1 + rng.Int63n(size-off)
		r := Range{Off: off, Len: ln}
		first, last := g.Span(r)
		for c := Idx(0); int(c) < g.Chunks(); c++ {
			cr := g.ChunkRange(c)
			overlaps := cr.Off < r.End() && r.Off < cr.End()
			inSpan := c >= first && c <= last
			if overlaps != inSpan {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(200)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	if !s.Add(5) || s.Add(5) {
		t.Fatal("Add return values wrong")
	}
	if !s.Contains(5) || s.Contains(6) {
		t.Fatal("Contains wrong")
	}
	s.Add(64)
	s.Add(199)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if !s.Remove(64) || s.Remove(64) {
		t.Fatal("Remove return values wrong")
	}
	got := s.Members()
	if len(got) != 2 || got[0] != 5 || got[1] != 199 {
		t.Fatalf("Members = %v", got)
	}
}

func TestSetNextFrom(t *testing.T) {
	s := NewSet(300)
	for _, c := range []Idx{3, 70, 71, 128, 299} {
		s.Add(c)
	}
	cases := []struct{ from, want Idx }{
		{0, 3}, {3, 3}, {4, 70}, {70, 70}, {72, 128}, {129, 299}, {299, 299},
	}
	for _, tc := range cases {
		if got := s.NextFrom(tc.from); got != tc.want {
			t.Fatalf("NextFrom(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
	s.Remove(299)
	if got := s.NextFrom(129); got != -1 {
		t.Fatalf("NextFrom(129) = %d, want -1", got)
	}
}

func TestSetNextRunFrom(t *testing.T) {
	s := NewSet(100)
	for _, c := range []Idx{10, 11, 12, 13, 40} {
		s.Add(c)
	}
	start, n := s.NextRunFrom(0, 8)
	if start != 10 || n != 4 {
		t.Fatalf("run = (%d,%d), want (10,4)", start, n)
	}
	start, n = s.NextRunFrom(0, 2)
	if start != 10 || n != 2 {
		t.Fatalf("capped run = (%d,%d), want (10,2)", start, n)
	}
	start, n = s.NextRunFrom(14, 8)
	if start != 40 || n != 1 {
		t.Fatalf("run = (%d,%d), want (40,1)", start, n)
	}
	start, n = s.NextRunFrom(41, 8)
	if start != -1 || n != 0 {
		t.Fatalf("run = (%d,%d), want (-1,0)", start, n)
	}
}

func TestSetCloneClearUnion(t *testing.T) {
	a := NewSet(128)
	a.AddRange(0, 9)
	b := a.Clone()
	b.Add(100)
	if a.Contains(100) {
		t.Fatal("clone aliases parent")
	}
	a.UnionWith(b)
	if a.Count() != 11 {
		t.Fatalf("union count = %d, want 11", a.Count())
	}
	a.Clear()
	if !a.Empty() {
		t.Fatal("clear failed")
	}
}

// TestSetMatchesMap: bitmap semantics match a reference map implementation
// under random operations.
func TestSetMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		s := NewSet(n)
		ref := make(map[Idx]bool)
		for i := 0; i < 300; i++ {
			c := Idx(rng.Intn(n))
			switch rng.Intn(3) {
			case 0:
				if s.Add(c) == ref[c] {
					return false
				}
				ref[c] = true
			case 1:
				if s.Remove(c) != ref[c] {
					return false
				}
				delete(ref, c)
			case 2:
				if s.Contains(c) != ref[c] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, c := range s.Members() {
			if !ref[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCounter: a fresh counter reads zero without storage, the first Inc
// allocates it, and both Get and Inc check bounds either way.
func TestCounter(t *testing.T) {
	wc := NewCounter(10)
	if wc.Get(3) != 0 || wc.Allocated() {
		t.Fatal("fresh counter nonzero or allocated")
	}
	if wc.Inc(3) != 1 || wc.Inc(3) != 2 || !wc.Allocated() {
		t.Fatal("Inc wrong")
	}
	if wc.Get(3) != 2 || wc.Get(4) != 0 || wc.Len() != 10 {
		t.Fatal("Get wrong after Inc")
	}
	for name, f := range map[string]func(){
		"Get(10) fresh":  func() { NewCounter(10).Get(10) },
		"Get(-1) fresh":  func() { NewCounter(10).Get(-1) },
		"Get(10)":        func() { wc.Get(10) },
		"Inc(10)":        func() { wc.Inc(10) },
		"NewCounter(-1)": func() { NewCounter(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// counterOf returns a counter of n chunks with chunk c incremented
// counts[c] times.
func counterOf(n int, counts map[Idx]uint32) *Counter {
	wc := NewCounter(n)
	for c, k := range counts {
		for range k {
			wc.Inc(c)
		}
	}
	return wc
}

func TestPullQueueOrder(t *testing.T) {
	remaining := NewSet(10)
	counts := map[Idx]uint32{1: 5, 2: 1, 3: 9, 7: 5, 9: 0, 4: 8} // 4 is not remaining
	for c := range counts {
		if c != 4 {
			remaining.Add(c)
		}
	}
	q := NewPullQueue(remaining, counterOf(10, counts))
	var got []Idx
	for {
		c := q.Pop()
		if c < 0 {
			break
		}
		remaining.Remove(c)
		got = append(got, c)
	}
	// Decreasing count; ties by ascending index: 3(9), 1(5), 7(5), 2(1), 9(0).
	want := []Idx{3, 1, 7, 2, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestPullQueueLazyCancel(t *testing.T) {
	remaining := NewSet(5)
	counts := counterOf(5, map[Idx]uint32{1: 10, 2: 20, 3: 30, 4: 40})
	remaining.AddRange(0, 4)
	q := NewPullQueue(remaining, counts)
	counts.Inc(0) // later writes do not reorder a built queue
	// A destination write removes chunk 4 before it is pulled.
	remaining.Remove(4)
	if got := q.Pop(); got != 3 {
		t.Fatalf("Pop = %d, want 3 (4 canceled)", got)
	}
	remaining.Remove(3) // popped chunks are removed by the caller
	remaining.Remove(2)
	if got := q.Peek(); got != 1 {
		t.Fatalf("Peek = %d, want 1", got)
	}
	if q.Empty() {
		t.Fatal("queue empty with live entries")
	}
	remaining.Remove(1)
	remaining.Remove(0)
	if !q.Empty() {
		t.Fatal("queue not empty after all canceled")
	}
}

// TestPullQueueProperty: popped sequence is always non-increasing in count
// and covers exactly the non-canceled members.
func TestPullQueueProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		remaining := NewSet(n)
		counts := make([]uint32, n)
		wc := NewCounter(n)
		for c := 0; c < n; c++ {
			if rng.Intn(2) == 0 {
				remaining.Add(Idx(c))
				counts[c] = uint32(rng.Intn(8))
				for range counts[c] {
					wc.Inc(Idx(c))
				}
			}
		}
		q := NewPullQueue(remaining, wc)
		// Cancel a random subset.
		canceled := make(map[Idx]bool)
		remaining.ForEach(func(c Idx) bool {
			if rng.Intn(4) == 0 {
				canceled[c] = true
			}
			return true
		})
		for c := range canceled {
			remaining.Remove(c)
		}
		expect := remaining.Count()
		last := uint32(1 << 31)
		popped := 0
		for {
			c := q.Pop()
			if c < 0 {
				break
			}
			if canceled[c] {
				return false
			}
			if counts[c] > last {
				return false
			}
			last = counts[c]
			remaining.Remove(c)
			popped++
		}
		return popped == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPullQueueNilCounterIsFIFO: with no counter (the FIFO ablation) every
// member has the same priority, so the queue pops in ascending index and
// still skips canceled members.
func TestPullQueueNilCounterIsFIFO(t *testing.T) {
	remaining := NewSet(100)
	remaining.AddRange(10, 14)
	remaining.AddRange(60, 61)
	remaining.Add(3)
	q := NewPullQueue(remaining, nil)
	remaining.Remove(12)
	var got []Idx
	for c := q.Pop(); c >= 0; c = q.Pop() {
		remaining.Remove(c)
		got = append(got, c)
	}
	if want := []Idx{3, 10, 11, 13, 14, 60, 61}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

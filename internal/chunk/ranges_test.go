package chunk

import (
	"math/rand"
	"testing"
)

// rangeOp is one step of a range-operation sequence: kind picks the
// operation, a and b are chunk indices (ordered into an interval where the
// operation takes one), maxLen is NextRunFrom's limit.
type rangeOp struct {
	kind   int
	a, b   Idx
	maxLen int
}

const rangeOpKinds = 5

// checkRangeOps applies ops to a pair of sets of size n and to a []bool
// model of each, and fails t at the first result that differs.
func checkRangeOps(t *testing.T, n int, ops []rangeOp) {
	t.Helper()
	s, other := NewSet(n), NewSet(n)
	ms, mo := make([]bool, n), make([]bool, n)
	fill := func(m []bool, lo, hi Idx, v bool) {
		for c := lo; c <= hi; c++ {
			m[c] = v
		}
	}
	for i, op := range ops {
		lo, hi := min(op.a, op.b), max(op.a, op.b)
		switch op.kind {
		case 0:
			s.AddRange(lo, hi)
			fill(ms, lo, hi, true)
		case 1:
			s.RemoveRange(lo, hi)
			fill(ms, lo, hi, false)
		case 2:
			other.AddRange(lo, hi)
			fill(mo, lo, hi, true)
		case 3:
			other.RemoveRange(lo, hi)
			fill(mo, lo, hi, false)
		case 4:
			if got, want := s.RunEnd(lo, hi), modelRunEnd(ms, lo, hi); got != want {
				t.Fatalf("n=%d op %d: RunEnd(%d, %d) = %d, want %d", n, i, lo, hi, got, want)
			}
			start, length := s.NextRunFrom(op.a, op.maxLen)
			wantStart, wantLen := modelNextRun(ms, op.a, op.maxLen)
			if start != wantStart || length != wantLen {
				t.Fatalf("n=%d op %d: NextRunFrom(%d, %d) = (%d, %d), want (%d, %d)",
					n, i, op.a, op.maxLen, start, length, wantStart, wantLen)
			}
		}
		pop := 0
		for c, v := range ms {
			if s.Contains(Idx(c)) != v {
				t.Fatalf("n=%d op %d: Contains(%d) = %v, want %v", n, i, c, !v, v)
			}
			if v {
				pop++
			}
		}
		if s.Count() != pop {
			t.Fatalf("n=%d op %d: Count = %d, want %d", n, i, s.Count(), pop)
		}
		var got [][2]Idx
		for first, last := range s.DiffRuns(other) {
			got = append(got, [2]Idx{first, last})
		}
		want := modelDiffRuns(ms, mo)
		if len(got) != len(want) {
			t.Fatalf("n=%d op %d: DiffRuns = %v, want %v", n, i, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("n=%d op %d: DiffRuns = %v, want %v", n, i, got, want)
			}
		}
		for first, last := range s.DiffRuns(other) {
			if [2]Idx{first, last} != want[0] {
				t.Fatalf("n=%d op %d: first DiffRuns run = [%d, %d], want %v", n, i, first, last, want[0])
			}
			break // an early stop must not resume the walk
		}
	}
}

func modelRunEnd(m []bool, c, last Idx) Idx {
	e := c
	for e < last && m[e+1] == m[c] {
		e++
	}
	return e
}

func modelNextRun(m []bool, c Idx, maxLen int) (Idx, int) {
	for ; int(c) < len(m); c++ {
		if m[c] {
			n := 1
			for n < maxLen && int(c)+n < len(m) && m[int(c)+n] {
				n++
			}
			return c, n
		}
	}
	return -1, 0
}

func modelDiffRuns(a, b []bool) [][2]Idx {
	var runs [][2]Idx
	for c := 0; c < len(a); c++ {
		if a[c] && !b[c] {
			first := c
			for c+1 < len(a) && a[c+1] && !b[c+1] {
				c++
			}
			runs = append(runs, [2]Idx{Idx(first), Idx(c)})
		}
	}
	return runs
}

// TestSetRangesOracle checks AddRange, RemoveRange, RunEnd, NextRunFrom
// and DiffRuns against a []bool model on random operation sequences. Set
// sizes straddle word boundaries, and indices are drawn mostly from word
// edges and the last (partial) word so ranges cross and touch them.
func TestSetRangesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 63, 64, 65, 100, 127, 128, 129, 191, 200, 256, 333} {
		edges := []int{0, n - 1, n / 2}
		for w := 64; w <= n; w += 64 {
			edges = append(edges, w-2, w-1, w, w+1)
		}
		idx := func() Idx {
			if rng.Intn(3) == 0 {
				return Idx(rng.Intn(n))
			}
			return Idx(min(max(edges[rng.Intn(len(edges))], 0), n-1))
		}
		for trial := 0; trial < 20; trial++ {
			ops := make([]rangeOp, 40)
			for i := range ops {
				maxLen := 1
				if rng.Intn(2) == 0 {
					maxLen = 1 + rng.Intn(n+70)
				}
				ops[i] = rangeOp{kind: rng.Intn(rangeOpKinds), a: idx(), b: idx(), maxLen: maxLen}
			}
			checkRangeOps(t, n, ops)
		}
	}
}

// FuzzSetRanges drives the same oracle from fuzzer bytes: the first byte
// sizes the sets (1..512 chunks), then every four bytes are one operation
// (kind, two indices, run-length limit). The seed corpus is under
// testdata/fuzz/FuzzSetRanges.
func FuzzSetRanges(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + 2*int(data[0])
		data = data[1:]
		var ops []rangeOp
		for ; len(data) >= 4 && len(ops) < 64; data = data[4:] {
			ops = append(ops, rangeOp{
				kind:   int(data[0]) % rangeOpKinds,
				a:      Idx(2 * int(data[1]) % n),
				b:      Idx((2*int(data[2]) + 1) % n),
				maxLen: 1 + int(data[3]),
			})
		}
		checkRangeOps(t, n, ops)
	})
}

// TestNextRunFromRejectsZeroLimit: a run-length limit below one is a
// contract violation, not a one-chunk run, whether or not a run exists.
func TestNextRunFromRejectsZeroLimit(t *testing.T) {
	full := NewSet(10)
	full.AddRange(2, 5)
	for _, s := range []*Set{full, NewSet(10)} {
		for _, maxLen := range []int{0, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("NextRunFrom(0, %d) on %d members did not panic", maxLen, s.Count())
					}
				}()
				s.NextRunFrom(0, maxLen)
			}()
		}
	}
}

// TestSetRangesZeroAlloc: the range primitives and the difference walk
// allocate nothing.
func TestSetRangesZeroAlloc(t *testing.T) {
	s, other := NewSet(1000), NewSet(1000)
	other.AddRange(100, 300)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		s.AddRange(3, 900)
		s.RemoveRange(500, 510)
		sink += int(s.RunEnd(3, 999))
		_, n := s.NextRunFrom(0, 1<<30)
		sink += n
		for first, last := range s.DiffRuns(other) {
			sink += int(last - first)
		}
	})
	if allocs != 0 {
		t.Fatalf("range operations allocate %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// BenchmarkSetAddRange marks a 4 GiB image's worth of 16 KiB cache pages
// (262,144) and clears them again, as a control transfer warms and an
// invalidation drops a guest cache.
func BenchmarkSetAddRange(b *testing.B) {
	const pages = 1 << 18
	s := NewSet(pages)
	b.ReportAllocs()
	for b.Loop() {
		s.AddRange(1, pages-2)
		s.RemoveRange(1, pages-2)
	}
}

// BenchmarkSetRunEnd finds the end of a 262,144-page run starting in the
// middle of a word.
func BenchmarkSetRunEnd(b *testing.B) {
	const pages = 1 << 18
	s := NewSet(pages)
	s.AddRange(7, pages-1)
	b.ReportAllocs()
	for b.Loop() {
		if s.RunEnd(7, pages-1) != pages-1 {
			b.Fatal("wrong run end")
		}
	}
}

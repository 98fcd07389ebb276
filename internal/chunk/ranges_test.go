package chunk

import (
	"math/rand"
	"slices"
	"testing"
)

// rangeOp is one step of a set-operation sequence: kind picks the
// operation, a and b are chunk indices (ordered into an interval where the
// operation takes one), maxLen is NextRunFrom's limit and, for the kinds
// past the range operations, a count or a parity.
type rangeOp struct {
	kind   int
	a, b   Idx
	maxLen int
}

const (
	rangeOpKinds = 5 // range writes and run queries: what FuzzSetRanges decodes
	setOpKinds   = 9 // plus Clone, Clear, UnionWith and ForEach/Members
)

// checkRangeOps applies ops to a pair of sets of size n and to a []bool
// model of each, and fails t at the first result that differs. After every
// operation both sets must match their models chunk by chunk and every page
// must be in normal form, so a write to a clone that reached its source
// shows up at once; after the sequence the shared full block must still be
// all ones and the shared empty block all zeros.
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
		case 5: // other becomes a clone of s, then one of the two is written
			other, mo = s.Clone(), slices.Clone(ms)
			set, m := s, ms
			if op.maxLen%2 == 0 {
				set, m = other, mo
			}
			if op.maxLen%4 < 2 {
				set.RemoveRange(lo, hi)
				fill(m, lo, hi, false)
			} else {
				set.AddRange(lo, hi)
				fill(m, lo, hi, true)
			}
		case 6:
			if op.maxLen%2 == 0 {
				s.Clear()
				clear(ms)
			} else {
				other.Clear()
				clear(mo)
			}
		case 7:
			s.UnionWith(other)
			for c, v := range mo {
				ms[c] = ms[c] || v
			}
		case 8:
			var want []Idx
			for c, v := range ms {
				if v {
					want = append(want, Idx(c))
				}
			}
			if got := s.Members(); !slices.Equal(got, want) {
				t.Fatalf("n=%d op %d: Members = %v, want %v", n, i, got, want)
			}
			var got []Idx
			s.ForEach(func(c Idx) bool {
				got = append(got, c)
				return len(got) < op.maxLen
			})
			if want = want[:min(op.maxLen, len(want))]; !slices.Equal(got, want) {
				t.Fatalf("n=%d op %d: ForEach stopped after %d = %v, want %v", n, i, op.maxLen, got, want)
			}
		}
		checkSetModel(t, n, i, "s", s, ms)
		checkSetModel(t, n, i, "other", other, mo)
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
	for w := range blockWords {
		if fullBlock[w] != ^uint64(0) || emptyBlock[w] != 0 {
			t.Fatalf("n=%d: shared full and empty block words %d = %#x, %#x after the sequence",
				n, w, fullBlock[w], emptyBlock[w])
		}
	}
}

// checkSetModel fails t unless s holds exactly the members of m, its
// counts agree, and every page is in normal form: the shared full block
// when whole, a private block when partly filled, and no block or an
// all-zero private one when empty.
func checkSetModel(t *testing.T, n, op int, name string, s *Set, m []bool) {
	t.Helper()
	pop := 0
	for c, v := range m {
		if s.Contains(Idx(c)) != v {
			t.Fatalf("n=%d op %d: %s.Contains(%d) = %v, want %v", n, op, name, c, !v, v)
		}
		if v {
			pop++
		}
	}
	if s.Count() != pop {
		t.Fatalf("n=%d op %d: %s.Count = %d, want %d", n, op, name, s.Count(), pop)
	}
	for k, pg := range s.dir {
		inPage := 0
		for c := k * blockBits; c < min(n, (k+1)*blockBits); c++ {
			if m[c] {
				inPage++
			}
		}
		var form bool
		switch {
		case inPage == 0:
			form = pg.b == nil || pg.owns() && *pg.b == emptyBlock
		case inPage == blockBits:
			form = pg.b == fullBlock
		default:
			form = pg.owns()
		}
		if pg.pop != inPage || !form {
			t.Fatalf("n=%d op %d: %s page %d holds %d members with count %d, full %v, nil %v",
				n, op, name, k, inPage, pg.pop, pg.b == fullBlock, pg.b == nil)
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

// TestSetRangesOracle checks the set operations against a []bool model on
// random operation sequences. Sizes up to 333 straddle word boundaries,
// with indices drawn mostly from word edges and the last (partial) word;
// sizes of three pages and more draw them mostly from within 65 chunks of a
// page edge, so ranges cover, cross and touch whole pages.
func TestSetRangesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{1, 2, 63, 64, 65, 100, 127, 128, 129, 191, 200, 256, 333,
		3 * blockBits, 3*blockBits + 1, 4*blockBits - 1, 5*blockBits + 77}
	for _, n := range sizes {
		edges := []int{0, n - 1, n / 2}
		if n < blockBits {
			for w := 64; w <= n; w += 64 {
				edges = append(edges, w-2, w-1, w, w+1)
			}
		} else {
			for p := 0; p <= n; p += blockBits {
				for d := -65; d <= 64; d++ {
					edges = append(edges, p+d)
				}
			}
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
				ops[i] = rangeOp{kind: rng.Intn(setOpKinds), a: idx(), b: idx(), maxLen: maxLen}
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

// FuzzSetBlocks drives the oracle over sets of three to four pages. The
// first two bytes size the sets (three or four pages, give or take up to
// 128 chunks); then every six bytes are one operation of any kind: the
// kind, two indices of two bytes each (see blockIdx) and a limit, squared
// so runs reach across pages. The seed corpus is under
// testdata/fuzz/FuzzSetBlocks.
func FuzzSetBlocks(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := blockBits*(3+int(data[0]%2)) + int(int8(data[1]))
		data = data[2:]
		var ops []rangeOp
		for ; len(data) >= 6 && len(ops) < 64; data = data[6:] {
			ops = append(ops, rangeOp{
				kind:   int(data[0]) % setOpKinds,
				a:      blockIdx(n, data[1], data[2]),
				b:      blockIdx(n, data[3], data[4]),
				maxLen: 1 + int(data[5])*int(data[5]),
			})
		}
		checkRangeOps(t, n, ops)
	})
}

// blockIdx decodes two fuzzer bytes into an index of a set of n chunks.
// The first byte picks a page edge (its upper seven bits) and the second a
// signed offset from it, so most indices fall within 128 chunks of an edge;
// an odd first byte scales the offset by 32 to reach the middle of a page.
func blockIdx(n int, b0, b1 byte) Idx {
	edges := (n+blockBits-1)/blockBits + 1
	off := int(int8(b1))
	if b0&1 != 0 {
		off *= 32
	}
	return Idx(min(max(int(b0>>1)%edges*blockBits+off, 0), n-1))
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

// TestSetPagesAllocateNoBlock: filling and emptying a 262,144-chunk set
// whole pages at a time allocates nothing and leaves no private block, and
// ragged ends reuse the blocks they dropped instead of allocating anew.
func TestSetPagesAllocateNoBlock(t *testing.T) {
	const pages = 1 << 18
	s := NewSet(pages)
	allocs := testing.AllocsPerRun(100, func() {
		s.AddRange(0, pages-1)
		if s.Blocks() != 0 || s.Count() != pages {
			t.Fatalf("whole set: %d private blocks, %d members; want 0 and %d", s.Blocks(), s.Count(), pages)
		}
		s.RemoveRange(0, pages-1)
	})
	if allocs != 0 || s.Blocks() != 0 {
		t.Fatalf("whole-page AddRange/RemoveRange: %.1f allocations per run, %d private blocks; want 0 and 0",
			allocs, s.Blocks())
	}
	allocs = testing.AllocsPerRun(100, func() {
		s.AddRange(1, pages-2)
		s.RemoveRange(1, pages-2)
	})
	if allocs != 0 || s.Blocks() != 2 {
		t.Fatalf("ragged AddRange/RemoveRange: %.1f allocations per run, %d private blocks; want 0 and 2",
			allocs, s.Blocks())
	}
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

// Package chunk provides chunk-granularity building blocks for the
// migration manager: index arithmetic between byte ranges and chunk indices,
// dense bitmap sets, per-chunk write counters, a lazy-deletion priority
// queue used by the prioritized prefetcher, and paged content-ID arrays
// (IDs) for images that are mostly never written.
//
// A virtual disk image of S bytes with chunk size C has ceil(S/C) chunks,
// numbered from zero. All sets in this package are dense (bitmap-backed)
// because the image is small relative to memory and most operations touch
// large contiguous runs. Range operations work on whole 64-bit words:
// AddRange and RemoveRange set and clear masked words, RunEnd finds where a
// run ends with one trailing-zero count per word, and DiffRuns walks the
// runs of a set difference. Runs, not single chunks, are the unit the guest
// cache, the hypervisor images and the migration manager hand around.
package chunk

import (
	"container/heap"
	"fmt"
	"iter"
	"math/bits"
)

// Idx identifies a chunk within an image.
type Idx int32

// Range is a byte range [Off, Off+Len) within an image.
type Range struct {
	Off int64
	Len int64
}

// End returns the exclusive end offset.
func (r Range) End() int64 { return r.Off + r.Len }

// Empty reports whether the range has zero length.
func (r Range) Empty() bool { return r.Len <= 0 }

// Geometry describes the chunking of an image.
type Geometry struct {
	ImageSize int64 // bytes
	ChunkSize int64 // bytes per chunk
}

// NewGeometry validates and returns a Geometry.
func NewGeometry(imageSize, chunkSize int64) Geometry {
	if imageSize <= 0 || chunkSize <= 0 {
		panic(fmt.Sprintf("chunk: invalid geometry (image %d, chunk %d)", imageSize, chunkSize))
	}
	return Geometry{ImageSize: imageSize, ChunkSize: chunkSize}
}

// Chunks returns the number of chunks in the image.
func (g Geometry) Chunks() int {
	return int((g.ImageSize + g.ChunkSize - 1) / g.ChunkSize)
}

// ChunkOf returns the chunk containing byte offset off.
func (g Geometry) ChunkOf(off int64) Idx {
	if off < 0 || off >= g.ImageSize {
		panic(fmt.Sprintf("chunk: offset %d outside image of %d bytes", off, g.ImageSize))
	}
	return Idx(off / g.ChunkSize)
}

// Span returns the half-open chunk interval [first, last] covering r.
func (g Geometry) Span(r Range) (first, last Idx) {
	if r.Empty() {
		panic("chunk: empty range has no span")
	}
	if r.Off < 0 || r.End() > g.ImageSize {
		panic(fmt.Sprintf("chunk: range [%d,%d) outside image of %d bytes", r.Off, r.End(), g.ImageSize))
	}
	return Idx(r.Off / g.ChunkSize), Idx((r.End() - 1) / g.ChunkSize)
}

// Clip returns the part of r that falls within the chunk run [first, last],
// with zero length if they do not overlap.
func (g Geometry) Clip(r Range, first, last Idx) Range {
	lo := max(r.Off, g.ChunkRange(first).Off)
	hi := min(r.End(), g.ChunkRange(last).End())
	return Range{Off: lo, Len: max(hi-lo, 0)}
}

// ForEachRun calls fn with the byte range of every maximal run of chunks in
// s, in ascending order.
func (g Geometry) ForEachRun(s *Set, fn func(off, length int64)) {
	for c := Idx(0); ; {
		start, n := s.NextRunFrom(c, 1<<30)
		if start < 0 {
			return
		}
		c = start + Idx(n)
		off := g.ChunkRange(start).Off
		fn(off, g.ChunkRange(c-1).End()-off)
	}
}

// ChunkRange returns the byte range of chunk c (the final chunk may be
// shorter than ChunkSize).
func (g Geometry) ChunkRange(c Idx) Range {
	off := int64(c) * g.ChunkSize
	if off < 0 || off >= g.ImageSize {
		panic(fmt.Sprintf("chunk: index %d out of image", c))
	}
	ln := g.ChunkSize
	if off+ln > g.ImageSize {
		ln = g.ImageSize - off
	}
	return Range{Off: off, Len: ln}
}

// ChunkLen returns the byte length of chunk c.
func (g Geometry) ChunkLen(c Idx) int64 { return g.ChunkRange(c).Len }

// FullyCovers reports whether r covers the whole of chunk c: a write that
// fully covers a chunk can proceed without read-modify-write.
func (g Geometry) FullyCovers(r Range, c Idx) bool {
	cr := g.ChunkRange(c)
	return r.Off <= cr.Off && r.End() >= cr.End()
}

// Set is a dense bitmap of chunk indices with a cached population count.
type Set struct {
	bits []uint64
	n    int // chunks representable
	pop  int
}

// NewSet returns an empty set sized for n chunks.
func NewSet(n int) *Set {
	if n < 0 {
		panic("chunk: negative set size")
	}
	return &Set{bits: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of chunks the set can hold.
func (s *Set) Len() int { return s.n }

// Count returns the number of chunks present.
func (s *Set) Count() int { return s.pop }

// Empty reports whether the set has no members.
func (s *Set) Empty() bool { return s.pop == 0 }

func (s *Set) check(c Idx) {
	if c < 0 || int(c) >= s.n {
		panic(fmt.Sprintf("chunk: index %d out of set of %d", c, s.n))
	}
}

// Contains reports membership.
func (s *Set) Contains(c Idx) bool {
	s.check(c)
	return s.bits[c>>6]&(1<<(uint(c)&63)) != 0
}

// Add inserts c; reports whether it was newly added.
func (s *Set) Add(c Idx) bool {
	s.check(c)
	w, b := c>>6, uint64(1)<<(uint(c)&63)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	s.pop++
	return true
}

// Remove deletes c; reports whether it was present.
func (s *Set) Remove(c Idx) bool {
	s.check(c)
	w, b := c>>6, uint64(1)<<(uint(c)&63)
	if s.bits[w]&b == 0 {
		return false
	}
	s.bits[w] &^= b
	s.pop--
	return true
}

// checkRange validates a non-empty interval [first, last]. It is small
// enough to inline, so a valid interval costs three compares.
func (s *Set) checkRange(first, last Idx) {
	if first < 0 || last < first || int(last) >= s.n {
		s.badRange(first, last)
	}
}

// badRange panics naming the first bound of [first, last] that is invalid.
func (s *Set) badRange(first, last Idx) {
	s.check(first)
	s.check(last)
	panic(fmt.Sprintf("chunk: empty interval [%d, %d]", first, last))
}

// endMasks returns the words holding the ends of [first, last] and the
// interval's bits in each: lo from first up, hi up to last. Words between
// them lie wholly inside; when fw == lw the interval's bits are lo & hi.
func endMasks(first, last Idx) (fw, lw int, lo, hi uint64) {
	return int(first >> 6), int(last >> 6), ^uint64(0) << (uint(first) & 63), ^uint64(0) >> (63 - uint(last)&63)
}

// AddRange inserts all chunks in [first, last], a word at a time. An
// interval with last < first is empty and changes nothing.
func (s *Set) AddRange(first, last Idx) {
	if last < first {
		return
	}
	s.checkRange(first, last)
	fw, lw, lo, hi := endMasks(first, last)
	if fw == lw {
		s.or(fw, lo&hi)
		return
	}
	s.or(fw, lo)
	for w := fw + 1; w < lw; w++ {
		s.or(w, ^uint64(0))
	}
	s.or(lw, hi)
}

// RemoveRange deletes all chunks in [first, last], a word at a time. An
// interval with last < first is empty and changes nothing.
func (s *Set) RemoveRange(first, last Idx) {
	if last < first {
		return
	}
	s.checkRange(first, last)
	fw, lw, lo, hi := endMasks(first, last)
	if fw == lw {
		s.andNot(fw, lo&hi)
		return
	}
	s.andNot(fw, lo)
	for w := fw + 1; w < lw; w++ {
		s.andNot(w, ^uint64(0))
	}
	s.andNot(lw, hi)
}

// or sets the bits m of word w.
func (s *Set) or(w int, m uint64) {
	s.pop += bits.OnesCount64(m &^ s.bits[w])
	s.bits[w] |= m
}

// andNot clears the bits m of word w.
func (s *Set) andNot(w int, m uint64) {
	s.pop -= bits.OnesCount64(m & s.bits[w])
	s.bits[w] &^= m
}

// RunEnd returns the last index e in [c, last] such that every chunk in
// [c, e] has the same membership as c. It scans a word at a time: the
// first differing chunk is the lowest set bit of the word (c absent) or of
// its complement (c present).
func (s *Set) RunEnd(c, last Idx) Idx {
	s.checkRange(c, last)
	w, lw := int(c>>6), int(last>>6)
	var flip uint64
	if s.bits[w]&(1<<(uint(c)&63)) != 0 {
		flip = ^uint64(0)
	}
	x := (s.bits[w] ^ flip) &^ (1<<(uint(c)&63) - 1)
	for x == 0 {
		if w == lw {
			return last
		}
		w++
		x = s.bits[w] ^ flip
	}
	return min(Idx(w*64+bits.TrailingZeros64(x))-1, last)
}

// DiffRuns yields every maximal run [first, last] of chunks that are in s
// but not in other, in ascending order, computing s &^ other a word at a
// time (the sets must be the same size).
func (s *Set) DiffRuns(other *Set) iter.Seq2[Idx, Idx] {
	if other.n != s.n {
		panic("chunk: difference of different-sized sets")
	}
	return func(yield func(first, last Idx) bool) {
		start := -1 // first index of the run being extended, or -1
		for w := range s.bits {
			word := s.bits[w] &^ other.bits[w]
			b := 0
			for b < 64 {
				if start < 0 {
					rest := word >> uint(b)
					if rest == 0 {
						break
					}
					b += bits.TrailingZeros64(rest)
					start = w*64 + b
				}
				rest := ^word >> uint(b)
				if rest == 0 {
					break // the run continues into the next word
				}
				b += bits.TrailingZeros64(rest)
				if !yield(Idx(start), Idx(w*64+b-1)) {
					return
				}
				start = -1
			}
		}
		if start >= 0 {
			yield(Idx(start), Idx(s.n-1))
		}
	}
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	out := &Set{bits: make([]uint64, len(s.bits)), n: s.n, pop: s.pop}
	copy(out.bits, s.bits)
	return out
}

// Clear removes all members.
func (s *Set) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
	s.pop = 0
}

// UnionWith adds every member of other (sets must be the same size).
func (s *Set) UnionWith(other *Set) {
	if other.n != s.n {
		panic("chunk: union of different-sized sets")
	}
	pop := 0
	for i := range s.bits {
		s.bits[i] |= other.bits[i]
		pop += bits.OnesCount64(s.bits[i])
	}
	s.pop = pop
}

// ForEach calls fn for each member in ascending order; fn returning false
// stops iteration early.
func (s *Set) ForEach(fn func(Idx) bool) {
	for w, word := range s.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !fn(Idx(w*64 + b)) {
				return
			}
			word &^= 1 << uint(b)
		}
	}
}

// Members returns all members in ascending order.
func (s *Set) Members() []Idx {
	out := make([]Idx, 0, s.pop)
	s.ForEach(func(c Idx) bool {
		out = append(out, c)
		return true
	})
	return out
}

// NextFrom returns the smallest member >= c, or -1 if none.
func (s *Set) NextFrom(c Idx) Idx {
	if c < 0 {
		c = 0
	}
	if int(c) >= s.n {
		return -1
	}
	w := int(c >> 6)
	word := s.bits[w] >> (uint(c) & 63) << (uint(c) & 63)
	for {
		if word != 0 {
			return Idx(w*64 + bits.TrailingZeros64(word))
		}
		w++
		if w >= len(s.bits) {
			return -1
		}
		word = s.bits[w]
	}
}

// NextRunFrom returns the first contiguous run of members starting at or
// after c, up to maxLen (>= 1) chunks long. Returns (-1, 0) when no member
// remains. The migration manager uses runs to batch contiguous chunks into
// single streamed transfers.
func (s *Set) NextRunFrom(c Idx, maxLen int) (start Idx, length int) {
	if maxLen < 1 {
		panic(fmt.Sprintf("chunk: run length limit %d < 1", maxLen))
	}
	start = s.NextFrom(c)
	if start < 0 {
		return -1, 0
	}
	last := start + Idx(min(maxLen, s.n-int(start))) - 1
	return start, int(s.RunEnd(start, last)-start) + 1
}

// Counter tracks per-chunk write counts. Counts saturate at the maximum
// uint32 rather than wrapping. The counts are allocated on the first Inc,
// so a migration whose VM writes nothing costs no count storage.
type Counter struct {
	n      int
	counts []uint32 // nil until the first Inc
}

// NewCounter returns a zeroed counter for n chunks.
func NewCounter(n int) *Counter {
	if n < 0 {
		panic("chunk: negative counter size")
	}
	return &Counter{n: n}
}

// Len returns the number of chunks covered.
func (wc *Counter) Len() int { return wc.n }

// Allocated reports whether the counts have been allocated (by an Inc).
func (wc *Counter) Allocated() bool { return wc.counts != nil }

// Get returns the count for chunk c.
func (wc *Counter) Get(c Idx) uint32 {
	if wc.counts == nil {
		if uint(c) >= uint(wc.n) {
			panic(indexError{"counter", int(c), wc.n})
		}
		return 0
	}
	return wc.counts[c]
}

// Inc increments the count for chunk c and returns the new value.
func (wc *Counter) Inc(c Idx) uint32 {
	if wc.counts == nil {
		if uint(c) >= uint(wc.n) {
			panic(indexError{"counter", int(c), wc.n})
		}
		wc.counts = make([]uint32, wc.n)
	}
	if wc.counts[c] != ^uint32(0) {
		wc.counts[c]++
	}
	return wc.counts[c]
}

// indexError is the panic value of an out-of-range index into a Counter or
// an IDs array. It formats only when printed, which keeps the checks cheap
// enough for the accessors to inline.
type indexError struct {
	of   string
	i, n int
}

func (e indexError) Error() string {
	return fmt.Sprintf("chunk: %s index %d out of [0,%d)", e.of, e.i, e.n)
}

// prioItem is a queue entry: chunk c with priority (count, then lower index
// first for determinism).
type prioItem struct {
	c     Idx
	count uint32
}

type prioHeap []prioItem

func (h prioHeap) Len() int { return len(h) }
func (h prioHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count > h[j].count // max-heap on count
	}
	return h[i].c < h[j].c
}
func (h prioHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *prioHeap) Push(x any)   { *h = append(*h, x.(prioItem)) }
func (h *prioHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// PullQueue orders chunks by decreasing write count, implementing the
// paper's BACKGROUND PULL priority ("frequently modified chunks will also be
// modified in the future"). Entries are removed lazily: a membership set is
// consulted at pop time, so cancellations (writes at the destination) are
// O(1).
type PullQueue struct {
	h       prioHeap
	members *Set
}

// NewPullQueue builds a queue over every member of remaining, prioritized by
// the members' counts as they read now: the queue copies them, so later
// increments do not reorder it. A nil counter gives every member the same
// priority (ascending index, the FIFO ablation). The queue holds a
// reference to remaining: removing a chunk from the set cancels its queue
// entry.
func NewPullQueue(remaining *Set, counts *Counter) *PullQueue {
	q := &PullQueue{members: remaining}
	q.h = make(prioHeap, 0, remaining.Count())
	remaining.ForEach(func(c Idx) bool {
		var n uint32
		if counts != nil {
			n = counts.Get(c)
		}
		q.h = append(q.h, prioItem{c: c, count: n})
		return true
	})
	heap.Init(&q.h)
	return q
}

// Pop returns the highest-priority chunk still in the remaining set, or -1
// when the queue is exhausted.
func (q *PullQueue) Pop() Idx {
	for len(q.h) > 0 {
		it := heap.Pop(&q.h).(prioItem)
		if q.members.Contains(it.c) {
			return it.c
		}
	}
	return -1
}

// Peek returns the next chunk Pop would return without removing it, or -1.
func (q *PullQueue) Peek() Idx {
	for len(q.h) > 0 {
		if q.members.Contains(q.h[0].c) {
			return q.h[0].c
		}
		heap.Pop(&q.h)
	}
	return -1
}

// Empty reports whether no live entries remain.
func (q *PullQueue) Empty() bool { return q.Peek() < 0 }

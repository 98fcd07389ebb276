// Package chunk provides chunk-granularity building blocks for the
// migration manager: index arithmetic between byte ranges and chunk indices,
// paged bitmap sets, per-chunk write counters, a lazy-deletion priority
// queue used by the prioritized prefetcher, and paged content-ID arrays
// (IDs) for images that are mostly never written.
//
// A virtual disk image of S bytes with chunk size C has ceil(S/C) chunks,
// numbered from zero. A Set is a paged bitmap: a directory of pages of
// 4,096 chunks, where a page never written in part has no storage, every
// wholly present page shares one read-only block, and only a page written
// in part owns a private block. Most sets are empty or hold long runs (an
// idle VM's guest cache, an image that is wholly local), so they cost a
// directory rather than a bitmap. Range operations work on whole pages and 64-bit
// words: AddRange and RemoveRange fill or empty the pages they cover and set
// and clear masked words in the rest, RunEnd finds where a run ends with one
// step per uniform page and one trailing-zero count per word, and DiffRuns
// walks the runs of a set difference. Runs, not single chunks, are the unit
// the guest cache, the hypervisor images and the migration manager hand
// around.
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

// Divisor divides non-negative byte offsets by a fixed positive size: with
// a shift when the size is a power of two, as page and chunk sizes are in
// every recorded run, and with a division otherwise.
type Divisor struct {
	n     int64
	shift uint8
	pow2  bool
}

// NewDivisor returns a Divisor by n, which must be positive.
func NewDivisor(n int64) Divisor {
	if n <= 0 {
		panic(fmt.Sprintf("chunk: divisor %d is not positive", n))
	}
	return Divisor{n: n, shift: uint8(bits.TrailingZeros64(uint64(n))), pow2: n&(n-1) == 0}
}

// Div returns x / n for x >= 0.
func (d Divisor) Div(x int64) int64 {
	if d.pow2 {
		return x >> d.shift
	}
	return x / d.n
}

// Geometry describes the chunking of an image. Build it with NewGeometry.
type Geometry struct {
	ImageSize int64 // bytes
	ChunkSize int64 // bytes per chunk
	div       Divisor
}

// NewGeometry validates and returns a Geometry.
func NewGeometry(imageSize, chunkSize int64) Geometry {
	if imageSize <= 0 || chunkSize <= 0 {
		panic(fmt.Sprintf("chunk: invalid geometry (image %d, chunk %d)", imageSize, chunkSize))
	}
	return Geometry{ImageSize: imageSize, ChunkSize: chunkSize, div: NewDivisor(chunkSize)}
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
	return Idx(g.div.Div(off))
}

// Span returns the half-open chunk interval [first, last] covering r.
func (g Geometry) Span(r Range) (first, last Idx) {
	if r.Empty() {
		panic("chunk: empty range has no span")
	}
	if r.Off < 0 || r.End() > g.ImageSize {
		panic(fmt.Sprintf("chunk: range [%d,%d) outside image of %d bytes", r.Off, r.End(), g.ImageSize))
	}
	return Idx(g.div.Div(r.Off)), Idx(g.div.Div(r.End() - 1))
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

// A Set's bitmap is paged: blockBits chunks per page, in blockWords words.
const (
	blockShift     = 12
	blockBits      = 1 << blockShift
	blockWordShift = blockShift - 6
	blockWords     = 1 << blockWordShift
)

// block holds the bits of one page of a Set.
type block [blockWords]uint64

// fullBlock is the one block every wholly present page of every Set shares.
// It is read-only: the first write that clears one of its bits copies it.
var fullBlock = func() *block {
	b := new(block)
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}()

// emptyBlock reads as the bits of a page without a block. It is never
// written.
var emptyBlock block

// page is one entry of a Set's directory. A page with every member shares
// fullBlock and a partly filled page owns a private block. A page with no
// members has no block, or keeps the zeroed private block it emptied a word
// at a time, ready for its next write.
type page struct {
	b   *block
	pop int // members in the page
}

// owns reports whether the page holds a private block.
func (pg *page) owns() bool { return pg.b != nil && pg.b != fullBlock }

// Set is a bitmap of chunk indices with a cached population count, stored
// as a directory of pages of blockBits chunks. An empty page that was never
// written in part has no block, a wholly present page shares fullBlock,
// and only a page written in part owns a private block, so a set costs
// memory in proportion to the pages it holds in part. Readers tell the
// kinds of page apart by their counts. No bit at or past n is ever set, so
// only a page wholly inside the set can be full.
type Set struct {
	dir   []page
	spare []*block // private blocks dropped from the directory, for reuse
	n     int      // chunks representable
	pop   int
}

// NewSet returns an empty set sized for n chunks.
func NewSet(n int) *Set {
	if n < 0 {
		panic("chunk: negative set size")
	}
	return &Set{dir: make([]page, (n+blockBits-1)>>blockShift), n: n}
}

// Len returns the number of chunks the set can hold.
func (s *Set) Len() int { return s.n }

// Count returns the number of chunks present.
func (s *Set) Count() int { return s.pop }

// Empty reports whether the set has no members.
func (s *Set) Empty() bool { return s.pop == 0 }

// Blocks returns the number of private blocks the set owns, in its
// directory or kept for reuse: what it costs beyond the directory.
func (s *Set) Blocks() int {
	k := len(s.spare)
	for _, pg := range s.dir {
		if pg.owns() {
			k++
		}
	}
	return k
}

func (s *Set) check(c Idx) {
	if uint(c) >= uint(s.n) {
		panic(indexError{"set", int(c), s.n})
	}
}

// Contains reports membership.
func (s *Set) Contains(c Idx) bool {
	s.check(c)
	b := s.dir[c>>blockShift].b
	return b != nil && b[c>>6&(blockWords-1)]&(1<<(uint(c)&63)) != 0
}

// Add inserts c; reports whether it was newly added.
func (s *Set) Add(c Idx) bool {
	pop := s.pop
	s.update(c, c, true)
	return s.pop != pop
}

// Remove deletes c; reports whether it was present.
func (s *Set) Remove(c Idx) bool {
	pop := s.pop
	s.update(c, c, false)
	return s.pop != pop
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
func endMasks(first, last Idx) (fw, lw Idx, lo, hi uint64) {
	return first >> 6, last >> 6, ^uint64(0) << (uint(first) & 63), ^uint64(0) >> (63 - uint(last)&63)
}

// AddRange inserts all chunks in [first, last]. An interval with
// last < first is empty and changes nothing.
func (s *Set) AddRange(first, last Idx) { s.update(first, last, true) }

// RemoveRange deletes all chunks in [first, last]. An interval with
// last < first is empty and changes nothing.
func (s *Set) RemoveRange(first, last Idx) { s.update(first, last, false) }

// update sets (on) or clears every chunk in [first, last]. An interval
// inside one word of a private block takes one masked update, and one
// inside a page that is already full (on) or empty changes nothing;
// otherwise each page the interval wholly covers turns full or empty in
// one step and the rest is masked a word at a time.
func (s *Set) update(first, last Idx, on bool) {
	if last < first {
		return
	}
	s.checkRange(first, last)
	fw, lw, lo, hi := endMasks(first, last)
	if k := fw >> blockWordShift; k == lw>>blockWordShift {
		pg := &s.dir[k]
		if fw == lw && pg.owns() {
			s.settle(pg, maskWord(pg.b, fw&(blockWords-1), lo&hi, on))
			return
		}
		if pg.pop == blockBits && on || pg.pop == 0 && !on {
			return
		}
	}
	s.fill(first, last, on)
}

// fill sets (on) or clears every chunk of the valid interval [first, last],
// a page at a time.
func (s *Set) fill(first, last Idx, on bool) {
	for k := int(first) >> blockShift; k <= int(last)>>blockShift; k++ {
		lo, hi := max(int(first), k<<blockShift), min(int(last), (k+1)<<blockShift-1)
		if hi-lo == blockBits-1 {
			s.setPage(&s.dir[k], on)
			continue
		}
		fw, lw, lom, him := endMasks(Idx(lo), Idx(hi))
		s.mask(fw, lw, lom, him, on)
	}
}

// setPage makes pg full (on) or empty, dropping its private block.
func (s *Set) setPage(pg *page, on bool) {
	s.drop(pg.b)
	if on {
		s.pop += blockBits - pg.pop
		pg.b, pg.pop = fullBlock, blockBits
	} else {
		s.pop -= pg.pop
		pg.b, pg.pop = nil, 0
	}
}

// mask sets (on) or clears, in the words [fw, lw] of one page, the bits lo
// selects in word fw, every bit of the words between and the bits hi
// selects in word lw; when fw == lw it is the bits of lo & hi. The
// selection must not be empty: a page without a block gets one before
// anything is set, and a full page is copied before anything is cleared.
func (s *Set) mask(fw, lw Idx, lo, hi uint64, on bool) {
	pg := &s.dir[fw>>blockWordShift]
	if pg.pop == blockBits && on || pg.pop == 0 && !on {
		return
	}
	b := pg.b
	switch b {
	case nil:
		b = s.newBlock()
		pg.b = b
	case fullBlock:
		b = s.newBlock()
		*b = *fullBlock
		pg.b = b
	}
	i, j := fw&(blockWords-1), lw&(blockWords-1)
	var d int
	if i == j {
		d = maskWord(b, i, lo&hi, on)
	} else {
		d = maskWord(b, i, lo, on)
		for w := i + 1; w < j; w++ {
			d += maskWord(b, w, ^uint64(0), on)
		}
		d += maskWord(b, j, hi, on)
	}
	s.settle(pg, d)
}

// maskWord sets (on) or clears the bits m of word i of b and returns the
// change in members.
func maskWord(b *block, i Idx, m uint64, on bool) int {
	if on {
		d := bits.OnesCount64(m &^ b[i])
		b[i] |= m
		return d
	}
	d := bits.OnesCount64(m & b[i])
	b[i] &^= m
	return -d
}

// settle adds d members to pg, whose block is private. A page that filled
// drops its block for fullBlock; one that emptied keeps its block, now all
// zeros, for its next write.
func (s *Set) settle(pg *page, d int) {
	pg.pop += d
	s.pop += d
	if pg.pop == blockBits {
		s.drop(pg.b)
		pg.b = fullBlock
	}
}

// newBlock returns a zeroed private block, reusing a dropped one if any.
func (s *Set) newBlock() *block {
	if k := len(s.spare); k > 0 {
		b := s.spare[k-1]
		s.spare = s.spare[:k-1]
		*b = block{}
		return b
	}
	return new(block)
}

// drop keeps a private block the directory no longer holds for reuse.
func (s *Set) drop(b *block) {
	if b != nil && b != fullBlock {
		s.spare = append(s.spare, b)
	}
}

// RunEnd returns the last index e in [c, last] such that every chunk in
// [c, e] has the same membership as c. A page that is wholly like c takes
// one step; in a private block the first differing chunk is the lowest set
// bit of a word (c absent) or of its complement (c present).
func (s *Set) RunEnd(c, last Idx) Idx {
	s.checkRange(c, last)
	var flip uint64
	same := 0 // the count of a page wholly like c
	if b := s.dir[c>>blockShift].b; b != nil && b[c>>6&(blockWords-1)]&(1<<(uint(c)&63)) != 0 {
		flip, same = ^uint64(0), blockBits
	}
	lw := int(last) >> 6
	for pos := int(c); pos <= int(last); pos = (pos>>blockShift + 1) << blockShift {
		pg := &s.dir[pos>>blockShift]
		if pg.pop == same {
			continue
		}
		if pg.pop == blockBits-same {
			return Idx(pos - 1) // a page wholly unlike c, so not c's own
		}
		b := pg.b
		w, end := pos>>6, min(lw, (pos>>blockShift+1)*blockWords-1)
		x := (b[w&(blockWords-1)] ^ flip) &^ (1<<(uint(pos)&63) - 1)
		for x == 0 && w < end {
			w++
			x = b[w&(blockWords-1)] ^ flip
		}
		if x != 0 {
			return min(Idx(w*64+bits.TrailingZeros64(x)-1), last)
		}
	}
	return last
}

// DiffRuns yields every maximal run [first, last] of chunks that are in s
// but not in other, in ascending order (the sets must be the same size). A
// page where the difference is empty or whole takes one step; elsewhere
// s &^ other is computed a word at a time.
func (s *Set) DiffRuns(other *Set) iter.Seq2[Idx, Idx] {
	if other.n != s.n {
		panic("chunk: difference of different-sized sets")
	}
	return func(yield func(first, last Idx) bool) {
		start := -1 // first index of the run being extended, or -1
		for k := range s.dir {
			pa, po, base := &s.dir[k], &other.dir[k], k<<blockShift
			switch {
			case pa.pop == 0 || po.pop == blockBits:
				if start >= 0 {
					if !yield(Idx(start), Idx(base-1)) {
						return
					}
					start = -1
				}
				continue
			case pa.pop == blockBits && po.pop == 0:
				if start < 0 {
					start = base
				}
				continue
			}
			a, o := pa.b, po.b
			if o == nil {
				o = &emptyBlock
			}
			for i := range blockWords {
				word, at := a[i]&^o[i], base+i*64
				b := 0
				for b < 64 {
					if start < 0 {
						rest := word >> uint(b)
						if rest == 0 {
							break
						}
						b += bits.TrailingZeros64(rest)
						start = at + b
					}
					rest := ^word >> uint(b)
					if rest == 0 {
						break // the run continues into the next word
					}
					b += bits.TrailingZeros64(rest)
					if !yield(Idx(start), Idx(at+b-1)) {
						return
					}
					start = -1
				}
			}
		}
		if start >= 0 {
			yield(Idx(start), Idx(s.n-1))
		}
	}
}

// Clone returns a deep copy: full pages stay shared, the private blocks of
// partly filled pages are copied, and empty pages get no block.
func (s *Set) Clone() *Set {
	out := &Set{dir: make([]page, len(s.dir)), n: s.n, pop: s.pop}
	copy(out.dir, s.dir)
	for k, pg := range out.dir {
		switch {
		case pg.pop == 0:
			out.dir[k].b = nil
		case pg.owns():
			b := *pg.b
			out.dir[k].b = &b
		}
	}
	return out
}

// Clear removes all members.
func (s *Set) Clear() {
	for k := range s.dir {
		s.setPage(&s.dir[k], false)
	}
}

// UnionWith adds every member of other (sets must be the same size).
func (s *Set) UnionWith(other *Set) {
	if other.n != s.n {
		panic("chunk: union of different-sized sets")
	}
	for k := range s.dir {
		pg, po := &s.dir[k], &other.dir[k]
		switch {
		case po.pop == 0 || pg.pop == blockBits:
		case po.pop == blockBits:
			s.setPage(pg, true)
		default:
			if pg.b == nil {
				pg.b = s.newBlock()
			}
			d := 0
			for i, w := range po.b {
				d += bits.OnesCount64(w &^ pg.b[i])
				pg.b[i] |= w
			}
			s.settle(pg, d)
		}
	}
}

// ForEach calls fn for each member in ascending order; fn returning false
// stops iteration early.
func (s *Set) ForEach(fn func(Idx) bool) {
	for k, pg := range s.dir {
		base := k << blockShift
		switch pg.pop {
		case 0:
		case blockBits:
			for c := base; c < base+blockBits; c++ {
				if !fn(Idx(c)) {
					return
				}
			}
		default:
			for i, word := range pg.b {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					if !fn(Idx(base + i*64 + b)) {
						return
					}
					word &^= 1 << uint(b)
				}
			}
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

// NextFrom returns the smallest member >= c, or -1 if none. Empty pages
// take one step each.
func (s *Set) NextFrom(c Idx) Idx {
	if c < 0 {
		c = 0
	}
	if int(c) >= s.n {
		return -1
	}
	for k := int(c) >> blockShift; k < len(s.dir); k++ {
		pg := &s.dir[k]
		if pg.pop == 0 {
			continue
		}
		pos := max(int(c), k<<blockShift)
		if pg.pop == blockBits {
			return Idx(pos)
		}
		b := pg.b
		w := pos >> 6 & (blockWords - 1)
		word := b[w] >> (uint(pos) & 63) << (uint(pos) & 63)
		for {
			if word != 0 {
				return Idx(k<<blockShift + w*64 + bits.TrailingZeros64(word))
			}
			w++
			if w == blockWords {
				break
			}
			word = b[w]
		}
	}
	return -1
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

// indexError is the panic value of an out-of-range index into a Set, a
// Counter or an IDs array. It formats only when printed, which keeps the checks cheap
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

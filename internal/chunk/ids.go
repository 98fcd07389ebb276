package chunk

import "fmt"

// idsPage is the number of entries in one page of an IDs array.
const idsPage = 512

// IDs is a fixed-length array of content IDs whose entries read zero
// ("never written") until set. It is stored in pages of idsPage entries
// allocated on first write, so an image whose writes cover a small
// part of it costs a page table plus the pages written instead of one word
// per entry: a 4 GB image has 16,384 chunks, most of which a run never
// writes.
type IDs[T ~uint64] struct {
	n     int
	pages [][]T
}

// NewIDs returns an array of n entries that read zero until set.
func NewIDs[T ~uint64](n int) IDs[T] {
	if n < 0 {
		panic("chunk: negative IDs length")
	}
	return IDs[T]{n: n, pages: make([][]T, (n+idsPage-1)/idsPage)}
}

// Len returns the number of entries.
func (a *IDs[T]) Len() int { return a.n }

// At returns entry i.
func (a *IDs[T]) At(i int) T {
	if uint(i) >= uint(a.n) {
		panic(indexError{"ID", i, a.n})
	}
	if p := a.pages[uint(i)/idsPage]; p != nil {
		return p[uint(i)%idsPage]
	}
	return 0
}

// Set sets entry i to id.
func (a *IDs[T]) Set(i int, id T) {
	if uint(i) >= uint(a.n) {
		panic(indexError{"ID", i, a.n})
	}
	k := uint(i) / idsPage
	if a.pages[k] == nil {
		a.pages[k] = make([]T, idsPage)
	}
	a.pages[k][uint(i)%idsPage] = id
}

// SetRange sets entries first..last (inclusive) to id.
func (a *IDs[T]) SetRange(first, last int, id T) {
	if first < 0 || last >= a.n || first > last {
		panic(fmt.Sprintf("chunk: ID range [%d,%d] out of [0,%d)", first, last, a.n))
	}
	for i := first; i <= last; {
		k := i / idsPage
		end := min(last+1, (k+1)*idsPage)
		if a.pages[k] == nil {
			a.pages[k] = make([]T, idsPage)
		}
		p := a.pages[k][i-k*idsPage : end-k*idsPage]
		for j := range p {
			p[j] = id
		}
		i = end
	}
}

// Pages returns the number of pages allocated, a measure of what the array
// costs beyond its page table.
func (a *IDs[T]) Pages() int {
	k := 0
	for _, p := range a.pages {
		if p != nil {
			k++
		}
	}
	return k
}

// Snapshot returns the entries as a dense slice.
func (a *IDs[T]) Snapshot() []T {
	out := make([]T, a.n)
	for i := range out {
		out[i] = a.At(i)
	}
	return out
}

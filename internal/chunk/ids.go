package chunk

import "fmt"

// idsPage is the number of entries in one page of an IDs array.
const idsPage = 512

// IDs is a fixed-length array of content IDs whose entries read zero
// ("never written") until set. It is stored in pages of idsPage entries
// allocated on first write, so a file or image whose writes cover a small
// part of it costs a page table plus the pages written instead of one
// word per entry: a pvfs-shared snapshot of a 4 GB image has 16,384
// stripes, most of which a run never writes.
type IDs[T ~uint64] struct {
	n     int
	pages [][]T
}

// NewIDs returns an all-zero array of n entries.
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
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("chunk: ID index %d out of [0,%d)", i, a.n))
	}
	if p := a.pages[i/idsPage]; p != nil {
		return p[i%idsPage]
	}
	return 0
}

// page returns page k, allocating it on first use.
func (a *IDs[T]) page(k int) []T {
	if a.pages[k] == nil {
		a.pages[k] = make([]T, min(idsPage, a.n-k*idsPage))
	}
	return a.pages[k]
}

// SetRange sets entries first..last (inclusive) to id.
func (a *IDs[T]) SetRange(first, last int, id T) {
	if first < 0 || last >= a.n || first > last {
		panic(fmt.Sprintf("chunk: ID range [%d,%d] out of [0,%d)", first, last, a.n))
	}
	for i := first; i <= last; {
		k := i / idsPage
		end := min(last+1, (k+1)*idsPage)
		p := a.page(k)[i-k*idsPage : end-k*idsPage]
		for j := range p {
			p[j] = id
		}
		i = end
	}
}

// Put overwrites every entry with ids, which must have Len entries.
func (a *IDs[T]) Put(ids []T) {
	if len(ids) != a.n {
		panic(fmt.Sprintf("chunk: Put of %d IDs into an array of %d", len(ids), a.n))
	}
	for k := range a.pages {
		copy(a.page(k), ids[k*idsPage:])
	}
}

// Snapshot returns the entries as a dense slice.
func (a *IDs[T]) Snapshot() []T {
	out := make([]T, a.n)
	for k, p := range a.pages {
		copy(out[k*idsPage:], p)
	}
	return out
}

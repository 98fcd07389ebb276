package chunk

import (
	"math/rand"
	"slices"
	"testing"
)

// TestIDsMatchesDense drives IDs and a dense slice with the same random
// SetRange and Put calls, across page boundaries and a short last page,
// and requires every read to agree.
func TestIDsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, idsPage - 1, idsPage, idsPage + 1, 3*idsPage + 17} {
		a := NewIDs[uint64](n)
		ref := make([]uint64, n)
		for op := 0; op < 200; op++ {
			switch rng.Intn(8) {
			case 0:
				ids := make([]uint64, n)
				for i := range ids {
					ids[i] = rng.Uint64()
				}
				a.Put(ids)
				copy(ref, ids)
			default:
				first := rng.Intn(n)
				last := first + rng.Intn(min(n-first, 2*idsPage+3))
				id := uint64(op + 1)
				a.SetRange(first, last, id)
				for i := first; i <= last; i++ {
					ref[i] = id
				}
			}
			if a.Len() != n {
				t.Fatalf("n=%d: Len = %d", n, a.Len())
			}
			for i := range ref {
				if a.At(i) != ref[i] {
					t.Fatalf("n=%d op %d: At(%d) = %d, want %d", n, op, i, a.At(i), ref[i])
				}
			}
			if got := a.Snapshot(); !slices.Equal(got, ref) {
				t.Fatalf("n=%d op %d: Snapshot differs from the dense reference", n, op)
			}
		}
	}
}

// TestIDsAllocatesOnlyWrittenPages checks the point of the type: an
// unwritten array reads zero without pages, and a write allocates only the
// pages it touches.
func TestIDsAllocatesOnlyWrittenPages(t *testing.T) {
	a := NewIDs[uint64](16 * idsPage)
	pages := func() (k int) {
		for _, p := range a.pages {
			if p != nil {
				k++
			}
		}
		return k
	}
	if a.At(5*idsPage) != 0 || pages() != 0 {
		t.Fatal("a new array must read zero with no pages")
	}
	a.SetRange(idsPage-1, idsPage, 7)
	if pages() != 2 {
		t.Fatalf("a write across one page boundary allocated %d pages, want 2", pages())
	}
}

func TestIDsRejectsOutOfRange(t *testing.T) {
	a := NewIDs[uint64](10)
	for name, f := range map[string]func(){
		"At(-1)":         func() { a.At(-1) },
		"At(10)":         func() { a.At(10) },
		"SetRange(9,10)": func() { a.SetRange(9, 10, 1) },
		"SetRange(3,2)":  func() { a.SetRange(3, 2, 1) },
		"Put(short)":     func() { a.Put(make([]uint64, 9)) },
		"NewIDs(-1)":     func() { NewIDs[uint64](-1) },
		"SetRange(-1,0)": func() { a.SetRange(-1, 0, 1) },
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

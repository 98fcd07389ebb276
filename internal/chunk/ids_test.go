package chunk

import (
	"math/rand"
	"slices"
	"testing"
)

// idsModel is the dense reference an IDs array is checked against, plus the
// pages writes have touched (the only pages the array may allocate).
type idsModel struct {
	ref     []uint64
	touched map[int]bool
}

func newIDsModel(n int) *idsModel {
	return &idsModel{ref: make([]uint64, n), touched: make(map[int]bool)}
}

func (m *idsModel) setRange(first, last int, id uint64) {
	for i := first; i <= last; i++ {
		m.ref[i] = id
		m.touched[i/idsPage] = true
	}
}

// check requires every read, the snapshot and the page count of a to agree
// with the model.
func (m *idsModel) check(t *testing.T, a *IDs[uint64], what string) {
	t.Helper()
	if a.Len() != len(m.ref) {
		t.Fatalf("%s: Len = %d, want %d", what, a.Len(), len(m.ref))
	}
	for i, want := range m.ref {
		if got := a.At(i); got != want {
			t.Fatalf("%s: At(%d) = %d, want %d", what, i, got, want)
		}
	}
	if !slices.Equal(a.Snapshot(), m.ref) {
		t.Fatalf("%s: Snapshot differs from the dense reference", what)
	}
	if a.Pages() != len(m.touched) {
		t.Fatalf("%s: %d pages allocated, want the %d written", what, a.Pages(), len(m.touched))
	}
}

// TestIDsMatchesDense drives IDs and a dense slice with the same random Set
// and SetRange calls, across page boundaries and a short last page, and
// requires every read to agree.
func TestIDsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, idsPage - 1, idsPage, idsPage + 1, 3*idsPage + 17} {
		a := NewIDs[uint64](n)
		m := newIDsModel(n)
		for op := 0; op < 200; op++ {
			id := uint64(op + 1)
			switch first := rng.Intn(n); rng.Intn(4) {
			case 0:
				a.Set(first, id)
				m.setRange(first, first, id)
			default:
				last := first + rng.Intn(min(n-first, 2*idsPage+3))
				a.SetRange(first, last, id)
				m.setRange(first, last, id)
			}
			m.check(t, &a, "dense")
		}
	}
}

// FuzzIDs replays fuzzer bytes as Set, SetRange and At calls on an IDs
// array and a dense reference: the first byte sizes the array (1..2041
// entries, up to four pages), the second is skipped (it once chose an
// implicit base, and the committed corpus still carries it), then every
// four bytes are one operation (kind, a 16-bit index, a range length). The
// seed corpus is under testdata/fuzz/FuzzIDs.
func FuzzIDs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + 8*int(data[0])
		a := NewIDs[uint64](n)
		m := newIDsModel(n)
		data = data[2:]
		for op := 0; len(data) >= 4 && op < 64; op, data = op+1, data[4:] {
			i := (int(data[1])<<8 | int(data[2])) % n
			id := uint64(op + 1)
			switch data[0] % 3 {
			case 0:
				a.Set(i, id)
				m.setRange(i, i, id)
			case 1:
				last := min(n-1, i+int(data[3])*4)
				a.SetRange(i, last, id)
				m.setRange(i, last, id)
			case 2:
				if got := a.At(i); got != m.ref[i] {
					t.Fatalf("op %d: At(%d) = %d, want %d", op, i, got, m.ref[i])
				}
			}
		}
		m.check(t, &a, "fuzz")
	})
}

// TestIDsAllocatesOnlyWrittenPages checks the point of the type: an
// unwritten array reads zero without pages, and a write allocates only
// the pages it touches.
func TestIDsAllocatesOnlyWrittenPages(t *testing.T) {
	a := NewIDs[uint64](16 * idsPage)
	if a.At(5*idsPage) != 0 || a.Pages() != 0 {
		t.Fatal("a new array must read zero with no pages")
	}
	a.SetRange(idsPage-1, idsPage, 7)
	if a.Pages() != 2 {
		t.Fatalf("a write across one page boundary allocated %d pages, want 2", a.Pages())
	}
	a.Set(idsPage+1, 8)
	if a.Pages() != 2 {
		t.Fatalf("a Set into an allocated page allocated more: %d pages, want 2", a.Pages())
	}
}

func TestIDsRejectsOutOfRange(t *testing.T) {
	a := NewIDs[uint64](10)
	for name, f := range map[string]func(){
		"At(-1)":         func() { a.At(-1) },
		"At(10)":         func() { a.At(10) },
		"Set(-1)":        func() { a.Set(-1, 1) },
		"Set(10)":        func() { a.Set(10, 1) },
		"SetRange(9,10)": func() { a.SetRange(9, 10, 1) },
		"SetRange(3,2)":  func() { a.SetRange(3, 2, 1) },
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

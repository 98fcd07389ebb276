package vm

import (
	"testing"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/params"
)

// dirtyModel is guest RAM as a []bool per page group, marked one group at
// a time: the reference DirtySeq and DirtyMapped must agree with.
type dirtyModel struct {
	pageSize       int64
	dirty, nonZero []bool
	paused         bool
}

func (d *dirtyModel) mark(c chunk.Idx) {
	d.dirty[c] = true
	d.nonZero[c] = true
}

func (d *dirtyModel) seq(r Region, bytes int64, cursor chunk.Idx) chunk.Idx {
	if d.paused || bytes <= 0 {
		return cursor
	}
	n := int((bytes + d.pageSize - 1) / d.pageSize)
	n = min(n, r.Groups())
	if cursor < r.First || cursor > r.Last {
		cursor = r.First
	}
	for i := 0; i < n; i++ {
		d.mark(cursor)
		cursor++
		if cursor > r.Last {
			cursor = r.First
		}
	}
	return cursor
}

func (d *dirtyModel) mapped(r Region, off, length int64) {
	if d.paused || length <= 0 {
		return
	}
	span := chunk.Idx(r.Groups())
	for g := chunk.Idx(off / d.pageSize); g <= chunk.Idx((off+length-1)/d.pageSize); g++ {
		d.mark(r.First + g%span)
	}
}

// count returns the groups set in m.
func count(m []bool) int64 {
	var n int64
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// FuzzDirtyRanges replays DirtySeq, DirtyMapped, pause toggles and dirty
// collections against dirtyModel and compares the returned cursor, every
// group of dirty and nonZero, DirtyBytes and NonZeroBytes after each step.
//
// Bytes: data[0] sizes the memory (1..511 groups), data[1] the page size
// (1..16 bytes), data[2] and data[3] place the region (any start, 1 group up
// to the rest of memory). Every five bytes after that are one operation:
// kind, a size selector, a size byte and two bytes for the cursor or cache
// offset. Sizes fall below, at and above the region's span in bytes; cursors
// fall inside and outside the region; offsets reach far past the span, so the
// modular mapping wraps. The seed corpus is under
// testdata/fuzz/FuzzDirtyRanges.
func FuzzDirtyRanges(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		groups := 1 + 2*int(data[0])
		ps := 1 + int64(data[1]%16)
		m := NewMemory(int64(groups)*ps, ps)
		first := chunk.Idx(2 * int(data[2]) % groups)
		r := Region{First: first, Last: first + chunk.Idx(int(data[3])%(groups-int(first)))}
		spanBytes := int64(r.Groups()) * ps
		model := &dirtyModel{pageSize: ps, dirty: make([]bool, groups), nonZero: make([]bool, groups)}
		size := func(sel, b byte) int64 {
			switch sel % 5 {
			case 0:
				return int64(b) // zero and small counts
			case 1:
				return spanBytes
			case 2:
				return spanBytes + int64(b)
			case 3:
				return spanBytes - 1 - int64(b) // may be zero or negative
			default:
				return int64(b) * int64(b)
			}
		}
		data = data[4:]
		for i := 0; len(data) >= 5 && i < 64; i, data = i+1, data[5:] {
			kind, sel, b, hi, lo := data[0]%4, data[1], data[2], data[3], data[4]
			switch kind {
			case 0:
				cursor := chunk.Idx(int(lo)%(groups+2) - 1) // -1..groups
				got := m.DirtySeq(r, size(sel, b), cursor)
				if want := model.seq(r, size(sel, b), cursor); got != want {
					t.Fatalf("op %d: DirtySeq(%v, %d, %d) = %d, want %d", i, r, size(sel, b), cursor, got, want)
				}
			case 1:
				off := int64(hi)<<8 | int64(lo)
				m.DirtyMapped(r, off, size(sel, b))
				model.mapped(r, off, size(sel, b))
			case 2:
				m.setPaused(!m.paused, 0)
				model.paused = !model.paused
			case 3:
				if got, want := m.CollectDirty(0), count(model.dirty)*ps; got != want {
					t.Fatalf("op %d: CollectDirty = %d, want %d", i, got, want)
				}
				clear(model.dirty)
			}
			for c := range groups {
				if m.dirty.Contains(chunk.Idx(c)) != model.dirty[c] || m.nonZero.Contains(chunk.Idx(c)) != model.nonZero[c] {
					t.Fatalf("op %d: group %d dirty=%v nonZero=%v, want %v %v", i, c,
						m.dirty.Contains(chunk.Idx(c)), m.nonZero.Contains(chunk.Idx(c)), model.dirty[c], model.nonZero[c])
				}
			}
			if got, want := m.DirtyBytes(0), count(model.dirty)*ps; got != want {
				t.Fatalf("op %d: DirtyBytes = %d, want %d", i, got, want)
			}
			if got, want := m.NonZeroBytes(), count(model.nonZero)*ps; got != want {
				t.Fatalf("op %d: NonZeroBytes = %d, want %d", i, got, want)
			}
		}
	})
}

// cm1Memory lays out one CM1 rank's guest RAM at paper parameters: the
// booted footprint, the page-cache region and the 800 MB working set, in
// 256 KB groups.
func cm1Memory() (m *Memory, cache, ws Region) {
	hv, g := params.DefaultHypervisor(), params.DefaultGuest()
	m = NewMemory(params.DefaultTestbed().RAM, hv.MemPageSize)
	m.Alloc(hv.BootedFootprint, true)
	cache = m.Alloc(g.CacheRegion, false)
	ws = m.Alloc(800*params.MB, false)
	return m, cache, ws
}

// BenchmarkDirtySeq settles 4 GB of dirtying over the 800 MB working set:
// the count caps at the region, so the cursor wraps once per settle.
func BenchmarkDirtySeq(b *testing.B) {
	m, _, ws := cm1Memory()
	cursor := ws.First + chunk.Idx(ws.Groups()/3)
	b.ReportAllocs()
	for b.Loop() {
		cursor = m.DirtySeq(ws, 4*params.GB, cursor)
	}
}

// BenchmarkDirtyMapped writes 200 MB output dumps one after another into
// the 2,560 MB page-cache region, wrapping around it every 13 dumps.
func BenchmarkDirtyMapped(b *testing.B) {
	m, cache, _ := cm1Memory()
	var off int64
	b.ReportAllocs()
	for b.Loop() {
		m.DirtyMapped(cache, off, 200*params.MB)
		off += 200 * params.MB
	}
}

package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/hybridmig/hybridmig/internal/chunk"
)

// catRun is one piece of a read's split: chunks [first, last] of one
// category.
type catRun struct {
	first, last chunk.Idx
	cat         cat
}

// splitRuns splits [first, last] as Read does.
func splitRuns(im *Image, first, last chunk.Idx) []catRun {
	var out []catRun
	for c := first; c <= last; {
		k, end := im.run(c, last)
		out = append(out, catRun{c, end, k})
		c = end + 1
	}
	return out
}

// splitPerChunk is the reference split: it classifies every chunk on its
// own and extends a run while the category repeats.
func splitPerChunk(im *Image, first, last chunk.Idx) []catRun {
	var out []catRun
	for c := first; c <= last; {
		k := im.category(c)
		end := c
		for end+1 <= last && im.category(end+1) == k {
			end++
		}
		out = append(out, catRun{c, end, k})
		c = end + 1
	}
	return out
}

// randomRuns adds (on) or removes chunks of s in a few random runs, some of
// them long enough to cross 64-chunk words and 4,096-chunk pages.
func randomRuns(rng *rand.Rand, s *chunk.Set, n int, on bool) {
	for i := rng.Intn(12); i > 0; i-- {
		first := rng.Intn(n)
		last := min(n-1, first+rng.Intn([]int{4, 200, 6000}[rng.Intn(3)]))
		if on {
			s.AddRange(chunk.Idx(first), chunk.Idx(last))
		} else {
			s.RemoveRange(chunk.Idx(first), chunk.Idx(last))
		}
	}
}

// TestReadRunsMatchPerChunkCategory checks Read's run split against the
// per-chunk reference over random local, modified, remaining, inFlight and
// content states, on a pulling destination and outside a pull, with and
// without a preseeded replica.
func TestReadRunsMatchPerChunkCategory(t *testing.T) {
	const n = 3*4096 + 77
	f := func(seed int64, pulling, preseeded bool) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig()
		opts := DefaultOptions(ModeHybrid)
		opts.Preseeded = preseeded
		geo := chunk.NewGeometry(n*4*kb, 4*kb)
		im := NewImage(r.eng, r.cl, r.cl.Nodes[0], geo, r.base, nil, opts, "img")
		randomRuns(rng, im.cur.local, n, !preseeded)
		randomRuns(rng, im.cur.local, n, preseeded)
		randomRuns(rng, im.cur.modified, n, true)
		for i := rng.Intn(12); i > 0; i-- {
			first := rng.Intn(n)
			im.cur.content.SetRange(first, min(n-1, first+rng.Intn(3000)), uint64(16+i))
		}
		im.remaining, im.inFlight = chunk.NewSet(n), chunk.NewSet(n)
		randomRuns(rng, im.remaining, n, true)
		randomRuns(rng, im.inFlight, n, true)
		if pulling {
			im.state = stPulling
		}
		for q := 0; q < 20; q++ {
			first := chunk.Idx(rng.Intn(n))
			last := min(chunk.Idx(n-1), first+chunk.Idx(rng.Intn([]int{8, 5000, n}[rng.Intn(3)])))
			got, want := splitRuns(im, first, last), splitPerChunk(im, first, last)
			if !slices.Equal(got, want) {
				t.Logf("seed %d pulling %v preseeded %v [%d, %d]: split %v, want %v",
					seed, pulling, preseeded, first, last, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

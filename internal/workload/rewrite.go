package workload

import (
	"github.com/hybridmig/hybridmig/internal/guest"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// RewriteReport carries the rewrite workload's measurements.
type RewriteReport struct {
	WriteBytes float64
	Runtime    float64
	Iterations int
}

// Rewriter is the hot/cold rewrite workload (see params.Rewrite): every
// iteration rewrites the file's hot leading region and then the cold
// remainder, so a live migration sees both chunks that stay under the
// write-count threshold and chunks that exceed it.
type Rewriter struct {
	P      params.Rewrite
	Report RewriteReport
}

// NewRewriter returns a rewrite workload with the given configuration.
func NewRewriter(p params.Rewrite) *Rewriter { return &Rewriter{P: p} }

// Run executes the workload to completion.
func (w *Rewriter) Run(p *sim.Proc, g *guest.Guest) {
	start := p.Now()
	f := g.FS.Create("rewrite.dat", w.P.FileSize)
	hot := w.P.HotBytes
	if hot > w.P.FileSize {
		hot = w.P.FileSize
	}
	for it := 0; it < w.P.Iterations; it++ {
		if hot > 0 {
			g.FS.Write(p, f, 0, hot)
			w.Report.WriteBytes += float64(hot)
		}
		if rest := w.P.FileSize - hot; rest > 0 {
			g.FS.Write(p, f, hot, rest)
			w.Report.WriteBytes += float64(rest)
		}
		w.Report.Iterations++
		p.Sleep(w.P.Interval)
	}
	w.Report.Runtime = p.Now() - start
}

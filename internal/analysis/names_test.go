package analysis

import (
	"go/types"
	"testing"
)

// TestNames: an analyzer renders as its name and a pass as the analyzer's
// name at the package path.
func TestNames(t *testing.T) {
	a := &Analyzer{Name: "simclock"}
	if got := a.String(); got != "simclock" {
		t.Errorf("analyzer renders as %q", got)
	}
	p := &Pass{Analyzer: a, Pkg: types.NewPackage("example.com/sim", "sim")}
	if got := p.String(); got != "simclock@example.com/sim" {
		t.Errorf("pass renders as %q", got)
	}
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"unicode"
)

// An Analyzer describes one analysis pass: a named check with documentation
// and a Run function that inspects a single package and reports diagnostics.
//
// The field set mirrors golang.org/x/tools/go/analysis.Analyzer (minus the
// facts machinery, which no migsim analyzer needs).
type Analyzer struct {
	// Name identifies the analyzer on the command line ("detmaprange").
	// It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation. The first line is the summary
	// printed by `migsimvet -list`.
	Doc string

	// URL points at longer-form documentation, if any.
	URL string

	// Run applies the analyzer to a package. It may call pass.Report (or
	// the Reportf helpers) any number of times, and returns the result
	// made available to dependent analyzers via Pass.ResultOf.
	Run func(*Pass) (interface{}, error)

	// Requires lists analyzers whose results this one consumes. All
	// migsim analyzers are currently leaf passes, but the driver honors
	// the DAG so a shared inspector pass can be added later without
	// touching it.
	Requires []*Analyzer

	// ResultType is the dynamic type of the value returned by Run, when
	// dependents consume it.
	ResultType reflect.Type
}

func (a *Analyzer) String() string { return a.Name }

// A Pass carries one package's syntax and type information to an analyzer's
// Run function, plus the Report sink for its diagnostics.
type Pass struct {
	Analyzer *Analyzer

	Fset         *token.FileSet
	Files        []*ast.File
	OtherFiles   []string
	IgnoredFiles []string
	Pkg          *types.Package
	TypesInfo    *types.Info
	TypesSizes   types.Sizes
	Module       *Module

	// ResultOf maps each analyzer in Analyzer.Requires to its result.
	ResultOf map[*Analyzer]interface{}

	// Report emits one diagnostic. The driver supplies it.
	Report func(Diagnostic)
}

func (p *Pass) String() string { return fmt.Sprintf("%s@%s", p.Analyzer.Name, p.Pkg.Path()) }

// Reportf reports a diagnostic at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position plus a message. Category defaults
// to the analyzer name in driver output.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional
	Category string    // optional
	Message  string
}

// A Module describes the module containing the analyzed package.
type Module struct {
	Path      string
	Version   string
	GoVersion string
}

// Validate checks that the analyzers are well formed: valid distinct names,
// documented, runnable, and an acyclic Requires graph. The driver calls it
// once at startup so a malformed registration fails loudly rather than
// silently dropping a check.
func Validate(analyzers []*Analyzer) error {
	names := make(map[string]bool)

	const (
		white = iota // unvisited
		grey         // on stack
		black        // done
	)
	color := make(map[*Analyzer]int)

	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		if a == nil {
			return fmt.Errorf("nil *Analyzer")
		}
		switch color[a] {
		case grey:
			return fmt.Errorf("cycle detected involving analysis %q", a.Name)
		case black:
			return nil
		}
		color[a] = grey
		if !validIdent(a.Name) {
			return fmt.Errorf("invalid analysis name %q", a.Name)
		}
		if a.Doc == "" {
			return fmt.Errorf("analysis %q is undocumented", a.Name)
		}
		if a.Run == nil {
			return fmt.Errorf("analysis %q has no Run function", a.Name)
		}
		for _, req := range a.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		color[a] = black
		return nil
	}

	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return err
		}
		if names[a.Name] {
			return fmt.Errorf("duplicate analysis name %q", a.Name)
		}
		names[a.Name] = true
	}
	return nil
}

func validIdent(name string) bool {
	for i, r := range name {
		if !(r == '_' || unicode.IsLetter(r) || i > 0 && unicode.IsDigit(r)) {
			return false
		}
	}
	return name != ""
}

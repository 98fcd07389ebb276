// Package lintutil holds the helpers shared by the migsim analyzers:
// the deterministic-package set, the //migsim: annotation escape hatch,
// and a small fmt verb scanner for format-string checks.
package lintutil

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"github.com/hybridmig/hybridmig/internal/analysis"
)

// detPackages is the set of packages covered by the determinism contract:
// everything that executes under the sim clock or renders results that the
// golden suites pin. A package is "deterministic" when an `internal` path
// segment is immediately followed by one of these names, so subpackages
// (internal/strategy/adaptive) inherit the contract.
var detPackages = map[string]bool{
	"sim":      true,
	"flow":     true,
	"core":     true,
	"cluster":  true,
	"hv":       true,
	"lease":    true,
	"sched":    true,
	"strategy": true,
	"scenario": true,
	"metrics":  true,
	"trace":    true,
}

// Deterministic reports whether the package path is covered by the
// determinism contract (see DESIGN.md §18).
func Deterministic(pkgPath string) bool {
	segs := strings.Split(pkgPath, "/")
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) && detPackages[segs[i+1]] {
			return true
		}
	}
	return false
}

// IsTestFile reports whether pos sits in a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// An Annotation is a parsed //migsim:<directive> <reason> comment.
type Annotation struct {
	Directive string // e.g. "unordered"
	Reason    string // justification text after the directive; may be empty
	Pos       token.Pos
}

// Directive looks for a //migsim:<name> annotation that suppresses a
// diagnostic at pos: either trailing on the same line, or a comment whose
// last line sits on the line immediately above. It returns the annotation
// and whether one was found. Callers must still reject an empty Reason —
// the escape hatch requires a justification (Suppressed does both).
func Directive(pass *analysis.Pass, pos token.Pos, name string) (Annotation, bool) {
	file := fileFor(pass, pos)
	if file == nil {
		return Annotation{}, false
	}
	line := pass.Fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			ann, ok := parseAnnotation(c.Text)
			if !ok || ann.Directive != name {
				continue
			}
			cline := pass.Fset.Position(c.End()).Line
			if cline == line || cline == line-1 {
				ann.Pos = c.Pos()
				return ann, true
			}
		}
	}
	return Annotation{}, false
}

// Suppressed reports whether a diagnostic at pos is suppressed by a
// well-formed //migsim:<name> <reason> annotation. An annotation without a
// reason does not suppress; instead it draws its own diagnostic, so the
// escape hatch can never silently decay into a bare mute.
func Suppressed(pass *analysis.Pass, pos token.Pos, name string) bool {
	ann, ok := Directive(pass, pos, name)
	if !ok {
		return false
	}
	if ann.Reason == "" {
		pass.Reportf(pos, "//migsim:%s annotation requires a justification: //migsim:%s <reason>", name, name)
		return false
	}
	return true
}

// parseAnnotation parses the raw text of one comment ("//migsim:unordered
// keys are sorted downstream") into an Annotation. Directive comments are
// deliberately matched on the raw token: ast.CommentGroup.Text strips
// //-directives, which is exactly why we cannot use it here.
func parseAnnotation(raw string) (Annotation, bool) {
	rest, ok := strings.CutPrefix(raw, "//migsim:")
	if !ok {
		return Annotation{}, false
	}
	directive, reason, _ := strings.Cut(rest, " ")
	return Annotation{Directive: directive, Reason: strings.TrimSpace(reason)}, directive != ""
}

func fileFor(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// FuncFor returns the innermost function declaration or literal enclosing
// pos, preferring the literal. The bool distinguishes "top-level code"
// (false) from "inside some function" (true).
func FuncFor(file *ast.File, pos token.Pos) (decl *ast.FuncDecl, lit *ast.FuncLit, found bool) {
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos >= n.End() {
			return false
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			decl, lit, found = fn, nil, true
		case *ast.FuncLit:
			lit, found = fn, true
		}
		return true
	})
	return decl, lit, found
}

// CalleeFunc resolves a call expression to the package-level *types.Func it
// invokes (through a plain identifier or a pkg.Sel selector), or nil.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// A FormatVerb is one conversion in a fmt format string, bound to the index
// of the operand it consumes (relative to the first variadic argument).
type FormatVerb struct {
	Verb   rune
	ArgIdx int
}

// ParseFormat scans a fmt format string and returns its verbs in order with
// operand indices. `*` width/precision arguments advance the operand index
// like real fmt does; %% consumes nothing. Explicit argument indexes
// (%[1]d) are followed. The scanner is deliberately tolerant: on malformed
// input it returns what it has seen so far, leaving error reporting to vet's
// stock printf checker.
func ParseFormat(format string) []FormatVerb {
	var verbs []FormatVerb
	arg := 0
	i := 0
	for i < len(format) {
		if format[i] != '%' {
			i++
			continue
		}
		i++ // past '%'
		// flags
		for i < len(format) && strings.ContainsRune("#+- 0", rune(format[i])) {
			i++
		}
		// width
		i, arg = scanNum(format, i, &verbs, arg)
		// precision
		if i < len(format) && format[i] == '.' {
			i++
			i, arg = scanNum(format, i, &verbs, arg)
		}
		// explicit argument index
		if i < len(format) && format[i] == '[' {
			j := strings.IndexByte(format[i:], ']')
			if j < 0 {
				return verbs
			}
			n := 0
			for _, r := range format[i+1 : i+j] {
				if r < '0' || r > '9' {
					n = 0
					break
				}
				n = n*10 + int(r-'0')
			}
			if n > 0 {
				arg = n - 1
			}
			i += j + 1
		}
		if i >= len(format) {
			return verbs
		}
		v := rune(format[i])
		i++
		if v == '%' {
			continue
		}
		verbs = append(verbs, FormatVerb{Verb: v, ArgIdx: arg})
		arg++
	}
	return verbs
}

// scanNum consumes a width/precision: either digits (no operand) or a `*`
// (consumes one operand, recorded as a '*' pseudo-verb so arg indexing
// stays aligned).
func scanNum(format string, i int, verbs *[]FormatVerb, arg int) (int, int) {
	if i < len(format) && format[i] == '*' {
		*verbs = append(*verbs, FormatVerb{Verb: '*', ArgIdx: arg})
		return i + 1, arg + 1
	}
	for i < len(format) && format[i] >= '0' && format[i] <= '9' {
		i++
	}
	return i, arg
}

// FormatArg returns the format string literal of a fmt-style call and the
// index of the first variadic operand, if the callee is one of the known
// fmt formatting functions. ok is false otherwise, or when the format is
// not a compile-time constant.
func FormatArg(info *types.Info, call *ast.CallExpr) (format string, argsFrom int, ok bool) {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return "", 0, false
	}
	var fmtIdx int
	switch fn.Name() {
	case "Printf", "Sprintf", "Errorf":
		fmtIdx = 0
	case "Fprintf", "Appendf":
		fmtIdx = 1
	default:
		return "", 0, false
	}
	if len(call.Args) <= fmtIdx {
		return "", 0, false
	}
	tv, found := info.Types[call.Args[fmtIdx]]
	if !found || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", 0, false
	}
	return constant.StringVal(tv.Value), fmtIdx + 1, true
}

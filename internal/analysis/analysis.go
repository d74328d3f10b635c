// Package analysis is the foundation of ampvet, AmpNet's determinism
// lint suite: a minimal analyzer framework plus the driver that runs
// it under the `go vet -vettool` separate-compilation protocol.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) so the suite can migrate onto the
// upstream framework wholesale if the dependency ever becomes
// available; it is reimplemented here on the standard library alone
// (go/ast, go/types, go/importer) because this repository builds with
// zero external modules.
//
// Why lint determinism at all: the serial and sharded engines must
// produce byte-identical Reports (DESIGN.md, "determinism under
// parallelism"). The equivalence batteries only sample seeds; the
// analyzers in internal/analysis/... machine-check the coding rules
// that make the property hold on every line before any test runs —
// virtual time only, seeded RNG streams only, no unordered map
// iteration feeding output bytes, all wire layout through
// internal/wire, no shard-goroutine writes to coordinator state.
//
// # The //ampvet:allow escape hatch
//
// A rule is suppressed, never silently, with a line comment:
//
//	start := time.Now() //ampvet:allow walltime operator-facing progress print
//
// The comment names the analyzer being waived (comma-separated for
// several) and should carry a short justification. It applies to
// diagnostics on its own line, or — when written on a line by itself —
// to the line directly below it. Test files (_test.go) are exempt from
// every analyzer: tests may use wall clocks and math/rand freely to
// drive the simulation from outside.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one ampvet rule and the function that checks
// it. Analyzers self-scope: Run inspects pass.Pkg.Path() and returns
// early for packages its rule does not govern.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ampvet:allow comments. It must be a valid identifier.
	Name string
	// Doc states the rule and, crucially, why it preserves
	// byte-identical Reports — diagnostics as documentation.
	Doc string
	// Run applies the rule to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one package: the syntax, the
// type information, and the Report sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one rule violation at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// allowPrefix introduces a suppression comment.
const allowPrefix = "ampvet:allow"

// A Suppressor decides, from //ampvet:allow comments and file names,
// whether a diagnostic must be dropped. Build one per package with
// NewSuppressor and consult it from the driver's Report sink.
type Suppressor struct {
	fset *token.FileSet
	// allowed maps file name -> line -> analyzer names waived there.
	allowed map[string]map[int][]string
}

// NewSuppressor scans the files' comments for //ampvet:allow
// annotations. Files must have been parsed with parser.ParseComments.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{fset: fset, allowed: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue // a bare ampvet:allow waives nothing
				}
				pos := fset.Position(c.Pos())
				byLine := s.allowed[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					s.allowed[pos.Filename] = byLine
				}
				names := strings.Split(fields[0], ",")
				byLine[pos.Line] = append(byLine[pos.Line], names...)
			}
		}
	}
	return s
}

// Suppressed reports whether a diagnostic from the named analyzer at
// pos is waived: the position is in a _test.go file, or an
// //ampvet:allow naming the analyzer sits on the same line or on the
// line directly above.
func (s *Suppressor) Suppressed(name string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	if strings.HasSuffix(p.Filename, "_test.go") {
		return true
	}
	byLine := s.allowed[p.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, n := range byLine[line] {
			if n == name {
				return true
			}
		}
	}
	return false
}

// RunPackage applies every analyzer to one type-checked package,
// returning the surviving (non-suppressed) diagnostics tagged with the
// analyzer that produced them, in source order per analyzer.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Finding, error) {
	sup := NewSuppressor(fset, files)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d Diagnostic) {
				if sup.Suppressed(a.Name, d.Pos) {
					return
				}
				out = append(out, Finding{Analyzer: a.Name, Pos: d.Pos, Message: d.Message})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path(), err)
		}
	}
	return out, nil
}

// A Finding is a surviving diagnostic attributed to its analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// NewInfo allocates the full types.Info map set the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// Package analysis is ampvet, AmpNet's determinism lint suite: six
// rules over go/ast and go/types, run by `go test ./internal/analysis`
// over every package of the module (TestTree), each package
// type-checked from source.
//
// Why lint determinism at all: the serial and sharded engines must
// produce byte-identical Reports (DESIGN.md, "determinism under
// parallelism"). The equivalence batteries only sample seeds; the rules
// machine-check the coding conventions that make the property hold on
// every line:
//
//	walltime   — virtual sim.Time only; no time.Now/Since/Sleep
//	rawrand    — all randomness from the scenario seed via sim.RNG
//	detmap     — no unordered map iteration; use detmap.SortedKeys
//	wireenc    — no hand-rolled wire byte layout outside internal/wire
//	shardshare — no shard-goroutine writes to coordinator state
//	framesink  — no uncounted frame sinks in phys/insertion/rostering
//
// Each rule's file states the rule in full; its fixtures live under
// testdata/<rule>/<package>/ with `// want` comments naming the
// diagnostics they must produce.
//
// # The //ampvet:allow escape hatch
//
// A rule is suppressed, never silently, with a line comment:
//
//	start := time.Now() //ampvet:allow walltime operator-facing progress print
//
// The comment names the rule being waived (comma-separated for
// several) and should carry a short justification. It applies to
// diagnostics on its own line, or — when written on a line by itself —
// to the line directly below it. Test files (_test.go) are exempt from
// every rule: tests may use wall clocks and math/rand freely to drive
// the simulation from outside.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strings"
)

// A Rule is one ampvet check and the package scope it governs.
type Rule struct {
	// Name identifies the rule in diagnostics and in //ampvet:allow
	// comments. It must be a valid identifier.
	Name string
	// Only, when set, lists the packages the rule governs; Except lists
	// packages it skips. Both match the last element of the import
	// path, so a fixture named "parsim" stands for repro/internal/parsim
	// (TestTree pins which module packages each rule reaches).
	Only, Except []string
	// Run applies the rule to one package.
	Run func(*Pass)
}

// Rules is the full suite, in reporting order.
var Rules = []*Rule{Walltime, Rawrand, Detmap, Wireenc, Shardshare, Framesink}

// Governs reports whether the rule applies to the package at pkgPath.
func (r *Rule) Governs(pkgPath string) bool {
	name := path.Base(pkgPath)
	return (len(r.Only) == 0 || slices.Contains(r.Only, name)) && !slices.Contains(r.Except, name)
}

// A Pass is one package's syntax and type information, handed to each
// governing rule in turn, and the findings they report.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	rule     *Rule
	allowed  map[waiver]bool
	findings []Finding
}

// A waiver is one rule named by an //ampvet:allow comment on one line.
type waiver struct {
	file string
	line int
	rule string
}

// A Finding is a diagnostic that survived the waivers, attributed to
// its rule.
type Finding struct {
	Rule    string
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos unless it is in a
// _test.go file or an //ampvet:allow naming the rule sits on the same
// line or on the line directly above.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Fset.Position(pos)
	if strings.HasSuffix(at.Filename, "_test.go") ||
		p.allowed[waiver{at.Filename, at.Line, p.rule.Name}] ||
		p.allowed[waiver{at.Filename, at.Line - 1, p.rule.Name}] {
		return
	}
	p.findings = append(p.findings, Finding{Rule: p.rule.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// RunPackage applies the rules that govern pkg to its files, which must
// have been parsed with parser.ParseComments, and returns the findings
// grouped by rule.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, rules []*Rule) []Finding {
	p := &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, allowed: map[waiver]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				names, ok := strings.CutPrefix(text, "ampvet:allow")
				fields := strings.Fields(names)
				if !ok || len(fields) == 0 {
					continue // a bare ampvet:allow waives nothing
				}
				at := fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					p.allowed[waiver{at.Filename, at.Line, name}] = true
				}
			}
		}
	}
	for _, r := range rules {
		if r.Governs(pkg.Path()) {
			p.rule = r
			r.Run(p)
		}
	}
	return p.findings
}

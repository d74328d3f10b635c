package analysis

import (
	"go/ast"
	"go/types"
)

// Detmap forbids iterating maps in unordered form.
//
// The rule: Go randomizes map iteration order on every run, so any
// bytes downstream of a bare `for range m` — Report JSON, plan text,
// wire frames, table rows, log lines — can differ between two runs of
// the same seed even on one engine, which is exactly the
// nondeterminism the serial/parallel equivalence batteries exist to
// rule out. The batteries only sample seeds; this rule rejects the
// pattern on every line. Iterate detmap.SortedKeys(m) (package
// repro/internal/detmap) instead, or — for an iteration whose order
// provably cannot escape (pure counting, building another map,
// results sorted before use) — waive the line:
//
//	for k := range m { //ampvet:allow detmap order folded into a commutative sum
var Detmap = &Rule{
	Name: "detmap",
	Run:  runDetmap,
}

func runDetmap(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pass.Reportf(rng.Pos(),
				"unordered map iteration: range order is randomized per run, so any Report/plan/wire "+
					"bytes derived from it are nondeterministic; iterate detmap.SortedKeys(m) "+
					"(repro/internal/detmap), or justify with //ampvet:allow detmap <reason> "+
					"if the order provably cannot escape")
			return true
		})
	}
}

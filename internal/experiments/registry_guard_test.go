package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"regexp"
	"strings"
	"testing"
)

// TestOneEntryPointPerExperiment walks the package source: every
// exported E<id>… function returning *Table takes Params first (or
// nothing, as the E1/E2 format tables do), is referenced from All(),
// and is the only one for its experiment id — so a second, differently
// parameterized entry point cannot come back unnoticed.
func TestOneEntryPointPerExperiment(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	idOf := regexp.MustCompile(`^E(\d+a?)[A-Z]`)
	byID := map[string]string{} // experiment id → its table function
	var all *ast.FuncDecl
	for _, f := range pkgs["experiments"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			if fn.Name.Name == "All" {
				all = fn
			}
			m := idOf.FindStringSubmatch(fn.Name.Name)
			if m == nil || !returnsTable(fn) {
				continue
			}
			if ps := fn.Type.Params.List; len(ps) > 0 {
				if id, ok := ps[0].Type.(*ast.Ident); !ok || id.Name != "Params" {
					t.Errorf("%s: first parameter is not Params", fn.Name.Name)
				}
			}
			id := "e" + m[1]
			if prev, dup := byID[id]; dup {
				t.Errorf("experiment %s has two entry points: %s and %s", id, prev, fn.Name.Name)
			}
			byID[id] = fn.Name.Name
		}
	}
	if all == nil {
		t.Fatal("All() not found")
	}
	referenced := map[string]bool{}
	ast.Inspect(all.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			referenced[id.Name] = true
		}
		return true
	})
	specs := All()
	for _, s := range specs {
		fn, ok := byID[s.ID]
		if !ok {
			t.Errorf("experiment %s has no E… table function", s.ID)
		} else if !referenced[fn] {
			t.Errorf("%s is not referenced from All()", fn)
		}
	}
	if len(byID) != len(specs) {
		t.Errorf("%d table functions for %d registered experiments: %v", len(byID), len(specs), byID)
	}
}

func returnsTable(fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
		return false
	}
	star, ok := fn.Type.Results.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Table"
}

package analysis

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// fset and std are shared by every package the tests check, so each
// standard-library package is type-checked from GOROOT source once per
// run: rules see real types (time.Time, math/rand identifiers) with no
// compiled export data in the loop.
var (
	fset = token.NewFileSet()
	std  = importer.ForCompiler(fset, "source", nil)
)

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load parses the named files with comments (the waivers live in them)
// and type-checks them as package path, resolving imports through imp.
func load(path string, names []string, imp types.Importer) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	return files, pkg, info, err
}

// TestTree runs every rule over the non-test files of every package
// `go list ./...` prints, in dependency order so each module package is
// type-checked once and imported as checked. A parse or type error
// fails the test: a package the rules cannot see is not a clean one.
// It also pins each scoped rule's reach, so a renamed package fails
// here instead of silently leaving its rule's scope.
func TestTree(t *testing.T) {
	list := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
	list.Dir = filepath.Join("..", "..")
	var stderr bytes.Buffer
	list.Stderr = &stderr
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, &stderr)
	}
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		return std.Import(path)
	})
	var all []string
	reach := map[string][]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir string
			GoFiles         []string
			Standard        bool
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			continue
		}
		var names []string
		for _, f := range p.GoFiles {
			names = append(names, filepath.Join(p.Dir, f))
		}
		files, pkg, info, err := load(p.ImportPath, names, imp)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		all = append(all, p.ImportPath)
		for _, f := range RunPackage(fset, files, pkg, info, Rules) {
			t.Errorf("%s: %s [ampvet:%s]", fset.Position(f.Pos), f.Message, f.Rule)
		}
		for _, r := range Rules {
			if r.Governs(p.ImportPath) {
				reach[r.Name] = append(reach[r.Name], p.ImportPath)
			}
		}
	}

	slices.Sort(all)
	without := func(path string) []string {
		if !slices.Contains(all, path) {
			t.Errorf("%s is not a package of the module", path)
		}
		return slices.DeleteFunc(slices.Clone(all), func(p string) bool { return p == path })
	}
	want := map[string][]string{
		"walltime":   without("repro/internal/telemetry"),
		"rawrand":    all,
		"detmap":     all,
		"wireenc":    without("repro/internal/wire"),
		"shardshare": {"repro/internal/parsim"},
		"framesink":  {"repro/internal/insertion", "repro/internal/phys", "repro/internal/rostering"},
	}
	for _, r := range Rules {
		got := reach[r.Name]
		slices.Sort(got)
		if !slices.Equal(got, want[r.Name]) {
			t.Errorf("%s governs %v, want %v", r.Name, got, want[r.Name])
		}
	}
}

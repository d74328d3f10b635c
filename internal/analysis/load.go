package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
)

// ParseFiles parses the named files with comments (the suppressor
// needs them): a compilation unit's for RunUnit, a fixture package's
// for analysistest.
func ParseFiles(fset *token.FileSet, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// CheckFixture type-checks a fixture package under the given package
// path. Standard-library imports are type-checked from GOROOT source,
// so fixtures exercise real types (time.Time, math/rand identifiers)
// exactly as production code does, with no go command in the loop.
func CheckFixture(fset *token.FileSet, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := NewInfo()
	conf := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

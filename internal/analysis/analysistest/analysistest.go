// Package analysistest runs an ampvet analyzer over fixture packages
// and checks its diagnostics against golden `// want` comments, the
// same convention as golang.org/x/tools/go/analysis/analysistest:
//
//	start := time.Now() // want `time\.Now reads the wall clock`
//
// Each quoted string after `want` is a regular expression that must
// match one diagnostic reported on that line; lines without a want
// comment must produce no diagnostic. Both //ampvet:allow suppression
// and the _test.go exemption are applied before matching, so fixtures
// can also pin the escape hatch's behavior.
//
// Fixtures live under <dir>/src/<pkg>/*.go and are type-checked for
// real — standard-library imports are type-checked from GOROOT source
// — so analyzers exercise the same types.Info they see in production.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/detmap"
)

// Run applies the analyzer to every named fixture package under
// dir/src and reports golden mismatches as test errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runPackage(t, filepath.Join(dir, "src", pkg), pkg, a)
	}
}

func runPackage(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("%s: no fixture files (%v)", dir, err)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	files, err := analysis.ParseFiles(fset, names)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	pkg, info, err := analysis.CheckFixture(fset, pkgPath, files)
	if err != nil {
		t.Fatalf("%s: type-checking: %v", dir, err)
	}

	findings, err := analysis.RunPackage(fset, files, pkg, info, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				patterns, ok := parseWant(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{filepath.Base(pos.Filename), pos.Line}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, p, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, f := range findings {
		pos := fset.Position(f.Pos)
		k := key{filepath.Base(pos.Filename), pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(f.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, f.Message)
		}
	}
	leftover := detmap.SortedKeysFunc(wants, func(a, b key) bool {
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	for _, k := range leftover {
		for _, re := range wants[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// parseWant extracts the regexp literals of a `// want "..." `...`
// comment, reporting ok=false for ordinary comments.
func parseWant(comment string) ([]string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, "want ") {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "want "))
	var out []string
	for rest != "" {
		var quote byte
		switch rest[0] {
		case '"', '`':
			quote = rest[0]
		default:
			return out, len(out) > 0
		}
		end := strings.IndexByte(rest[1:], quote)
		if end < 0 {
			return out, len(out) > 0
		}
		lit := rest[:end+2]
		s, err := strconv.Unquote(lit)
		if err != nil {
			return out, len(out) > 0
		}
		out = append(out, s)
		rest = strings.TrimSpace(rest[end+2:])
	}
	return out, len(out) > 0
}

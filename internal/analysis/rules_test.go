package analysis

import (
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRules checks each rule against its fixtures: every directory
// under testdata/<rule>/ is a package, type-checked under the
// directory's name, and each quoted regexp of a `// want` comment
//
//	start := time.Now() // want `time\.Now reads the wall clock`
//
// must match one diagnostic reported on that line; lines without one
// must produce none. Waivers and the _test.go exemption apply first, so
// fixtures pin the escape hatch too.
func TestRules(t *testing.T) {
	for _, r := range Rules {
		t.Run(r.Name, func(t *testing.T) {
			dirs, _ := filepath.Glob(filepath.Join("testdata", r.Name, "*"))
			if len(dirs) == 0 {
				t.Fatal("no fixtures")
			}
			for _, dir := range dirs {
				checkFixture(t, r, dir)
			}
		})
	}
}

func checkFixture(t *testing.T, r *Rule, dir string) {
	t.Helper()
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	files, pkg, info, err := load(filepath.Base(dir), names, std)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}

	type line struct {
		file string
		n    int
	}
	wants := map[line][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				at := fset.Position(c.Pos())
				l := line{at.Filename, at.Line}
				for _, p := range parseWant(c.Text) {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", at, p, err)
					}
					wants[l] = append(wants[l], re)
				}
			}
		}
	}

	for _, f := range RunPackage(fset, files, pkg, info, []*Rule{r}) {
		at := fset.Position(f.Pos)
		l := line{at.Filename, at.Line}
		i := slices.IndexFunc(wants[l], func(re *regexp.Regexp) bool { return re.MatchString(f.Message) })
		if i < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", at, f.Message)
			continue
		}
		wants[l] = slices.Delete(wants[l], i, i+1)
	}
	for l, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", l.file, l.n, re)
		}
	}
}

// parseWant extracts the quoted regexps of a want comment; an ordinary
// comment yields none.
func parseWant(comment string) []string {
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(comment, "//")), "want ")
	var out []string
	for rest = strings.TrimSpace(rest); ok && rest != "" && (rest[0] == '"' || rest[0] == '`'); {
		end := strings.IndexByte(rest[1:], rest[0])
		if end < 0 {
			break
		}
		s, err := strconv.Unquote(rest[:end+2])
		if err != nil {
			break
		}
		out = append(out, s)
		rest = strings.TrimSpace(rest[end+2:])
	}
	return out
}

package ampnet

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Prose is a cost with a budget: DESIGN.md describes the current state
// in at most 32 KiB, EXPERIMENTS.md stays under 40 KiB, and each "PR n:"
// entry of CHANGES.md is at most 1 600 bytes. Every test name DESIGN.md
// cites must still be a func in the tree, so a rule's prose cannot
// outlive the test that pins it.
func TestDocBudget(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, d := range []struct {
		file  string
		limit int
	}{{"DESIGN.md", 32 << 10}, {"EXPERIMENTS.md", 40 << 10}} {
		if n := len(read(d.file)); n > d.limit {
			t.Errorf("%s is %d bytes, over its %d-byte budget", d.file, n, d.limit)
		}
	}
	entry := regexp.MustCompile(`^PR \d+:`)
	for _, line := range strings.Split(read("CHANGES.md"), "\n") {
		if id := entry.FindString(line); id != "" && len(line) > 1600 {
			t.Errorf("CHANGES.md entry %q is %d bytes, over its 1600-byte budget", strings.TrimSuffix(id, ":"), len(line))
		}
	}

	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		for _, m := range decl.FindAllStringSubmatch(read(path), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	for _, name := range cited.FindAllString(read("DESIGN.md"), -1) {
		if !defined[name] {
			t.Errorf("DESIGN.md cites %s, which is no func in the tree", name)
		}
	}
}

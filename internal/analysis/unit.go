package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
)

// This file implements the `go vet -vettool` separate-compilation
// protocol (the contract golang.org/x/tools/go/analysis/unitchecker
// documents), so CI can run the suite as
//
//	go build -o ampvet ./cmd/ampvet
//	go vet -vettool=$PWD/ampvet ./...
//
// For every package in the build, the go command writes a JSON config
// file describing the compilation unit — source files, the import
// map, and the compiler export-data file of every dependency — and
// invokes the tool as `ampvet <flags> <objdir>/vet.cfg`. The tool
// must also answer two handshakes: `-V=full` prints a version line
// the build cache keys on, and `-flags` prints the tool's analyzer
// flags as JSON.

// unitConfig mirrors the JSON schema of the go command's vet.cfg.
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// PrintVersion answers the -V=full handshake. The line must read
// `<name> version <id>` with a non-"devel" id; hashing our own binary
// makes the build cache re-vet everything whenever ampvet changes.
func PrintVersion(w io.Writer) {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil))[:16]
			}
			f.Close()
		}
	}
	fmt.Fprintf(w, "ampvet version %s\n", id)
}

// PrintFlags answers the -flags handshake: ampvet defines no
// analyzer flags, so the set is empty.
func PrintFlags(w io.Writer) {
	fmt.Fprintln(w, "[]")
}

// RunUnit analyzes the single compilation unit described by cfgFile
// and prints surviving diagnostics to w. It returns the number of
// diagnostics; the caller exits non-zero on any.
func RunUnit(w io.Writer, cfgFile string, analyzers []*Analyzer) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 0, err
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return 0, fmt.Errorf("cannot decode vet config %s: %v", cfgFile, err)
	}
	// The go command consumes the fact output of dependency runs; the
	// suite computes no facts, so an empty file satisfies the contract.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return 0, err
		}
	}
	// Dependency-only invocations (VetxOnly) and foreign packages need
	// no analysis: the determinism rules govern this module's code.
	if cfg.VetxOnly || cfg.Standard[cfg.ImportPath] {
		return 0, nil
	}

	fset := token.NewFileSet()
	files, err := ParseFiles(fset, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})
	info := NewInfo()
	conf := &types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, fmt.Errorf("type-checking %s: %v", cfg.ImportPath, err)
	}

	findings, err := RunPackage(fset, files, pkg, info, analyzers)
	if err != nil {
		return 0, err
	}
	sort.SliceStable(findings, func(i, j int) bool { return findings[i].Pos < findings[j].Pos })
	for _, f := range findings {
		fmt.Fprintf(w, "%s: %s [ampvet:%s]\n", fset.Position(f.Pos), f.Message, f.Analyzer)
	}
	return len(findings), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

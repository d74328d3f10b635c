package analysis

import "strconv"

// Rawrand forbids RNG sources other than the scenario-seeded sim.RNG.
//
// The rule: every random stream in simulation code derives from the
// scenario seed through repro/internal/sim's RNG (splitmix64), which
// internal/sim/rng.go pins as the project invariant. math/rand (and
// math/rand/v2) break byte-reproducibility twice over: their default
// streams are seeded from runtime entropy, and their algorithms are
// not stable across Go releases, so the same seed stops meaning the
// same Report after a toolchain bump. crypto/rand is entropy by
// definition. Test files are exempt — a battery may use math/rand
// with a fixed seed to pick scenarios to run, because that stream
// never enters a Report.
var Rawrand = &Rule{
	Name: "rawrand",
	Run:  runRawrand,
}

// rawrandImports maps import paths to why they are rejected.
var rawrandImports = map[string]string{
	"math/rand":    "seeded from runtime entropy by default and not stream-stable across Go releases",
	"math/rand/v2": "seeded from runtime entropy and not stream-stable across Go releases",
	"crypto/rand":  "pure entropy",
}

func runRawrand(pass *Pass) {
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			why, bad := rawrandImports[path]
			if !bad {
				continue
			}
			pass.Reportf(imp.Pos(),
				"import of %s (%s): every random stream must derive from the scenario seed "+
					"via sim.NewRNG so identical seeds give identical Reports; "+
					"draw from the kernel's seeded RNG instead",
				path, why)
		}
	}
}

// Command ampvet is AmpNet's determinism-lint multichecker: it runs
// the internal/analysis suite that machine-checks the coding rules
// behind byte-identical serial/parallel Reports — rules the
// equivalence batteries can only sample by seed.
//
// It speaks the go vet separate-compilation protocol and is run as
//
//	go build -o /tmp/ampvet ./cmd/ampvet && go vet -vettool=/tmp/ampvet ./...
//
// so it sees exactly the types the compiler builds. go vet exits
// non-zero if any rule fires; waive a line with
// `//ampvet:allow <analyzer> <reason>`.
//
// The analyzers (see each package's doc for the full rule):
//
//	walltime   — virtual sim.Time only; no time.Now/Since/Sleep
//	rawrand    — all randomness from the scenario seed via sim.RNG
//	detmap     — no unordered map iteration; use detmap.SortedKeys
//	wireenc    — no hand-rolled wire byte layout outside internal/wire
//	shardshare — no shard-goroutine writes to coordinator state
//	framesink  — no uncounted frame sinks in phys/insertion/rostering
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detmap"
	"repro/internal/analysis/framesink"
	"repro/internal/analysis/rawrand"
	"repro/internal/analysis/shardshare"
	"repro/internal/analysis/walltime"
	"repro/internal/analysis/wireenc"
)

// Suite is the full determinism-lint suite, in reporting order.
var suite = []*analysis.Analyzer{
	walltime.Analyzer,
	rawrand.Analyzer,
	detmap.Analyzer,
	wireenc.Analyzer,
	shardshare.Analyzer,
	framesink.Analyzer,
}

func main() {
	args := os.Args[1:]

	// go vet handshakes.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			analysis.PrintVersion(os.Stdout)
			return
		case a == "-flags" || a == "--flags":
			analysis.PrintFlags(os.Stdout)
			return
		}
	}

	// go vet unit mode: the last argument is a JSON vet config.
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		count, err := analysis.RunUnit(os.Stderr, args[n-1], suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ampvet: %v\n", err)
			os.Exit(2)
		}
		if count > 0 {
			os.Exit(1)
		}
		return
	}

	fmt.Fprintln(os.Stderr, "usage: go build -o /tmp/ampvet ./cmd/ampvet && go vet -vettool=/tmp/ampvet ./...")
	os.Exit(2)
}

package ampnet

import (
	"os/exec"
	"strings"
	"testing"
)

// The cmd tools must surface address-space overflows as clear errors —
// naming the wire-format version and its ceiling — never as panics.
// The same holds for retired flags (the socket transport, the
// single-fault sugar -plan replaced: unknown to flag, which names them)
// and for negative sizes and durations and for NaN or endless fibers,
// which are refused by name instead of running as some default.
func TestCmdsSurfaceWireErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the cmd tools via `go run`")
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"ampsim-v1-overflow",
			[]string{"run", "./cmd/ampsim", "-wire", "v1", "-nodes", "300", "-switches", "2", "-run", "1ms"},
			[]string{"v1", "255"}},
		{"ampsim-unknown-version",
			[]string{"run", "./cmd/ampsim", "-wire", "v9"},
			[]string{"unknown wire-format version"}},
		{"ampbench-overflow",
			[]string{"run", "./cmd/ampbench", "-exp", "e7", "-nodes", "70000"},
			[]string{"65535"}},
		{"ampsim-retired-transport",
			[]string{"run", "./cmd/ampsim", "-shards", "2", "-transport", "socket"},
			[]string{"flag provided but not defined: -transport"}},
		{"ampsim-negative-shards",
			[]string{"run", "./cmd/ampsim", "-shards", "-3"},
			[]string{"Options.Shards", "-3"}},
		{"ampsim-negative-fiber",
			[]string{"run", "./cmd/ampsim", "-fiber", "-10"},
			[]string{"FiberM", "-10"}},
		{"ampsim-nan-fiber",
			[]string{"run", "./cmd/ampsim", "-fiber", "NaN"},
			[]string{"FiberM", "NaN"}},
		{"ampsim-infinite-fiber",
			[]string{"run", "./cmd/ampsim", "-fiber", "+Inf"},
			[]string{"FiberM", "+Inf"}},
		{"ampbench-nan-fiber",
			[]string{"run", "./cmd/ampbench", "-exp", "e3", "-fiber", "NaN"},
			[]string{"-fiber", "NaN"}},
		{"ampbench-negative-nodes",
			[]string{"run", "./cmd/ampbench", "-exp", "e3", "-nodes", "-2"},
			[]string{"-nodes", "-2"}},
		{"ampsim-negative-run",
			[]string{"run", "./cmd/ampsim", "-run", "-5ms"},
			[]string{"Scenario.For", "-5"}},
		{"ampsim-oversize-mesh",
			[]string{"run", "./cmd/ampsim", "-fabric", "mesh", "-nodes", "8", "-switches", "20000"},
			[]string{"20000 switches", "at most 8"}},
		{"ampsim-retired-fault-flag",
			[]string{"run", "./cmd/ampsim", "-fail-switch", "0"},
			[]string{"flag provided but not defined: -fail-switch"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("%v succeeded; want a validation error\n%s", c.args, out)
			}
			s := string(out)
			if strings.Contains(s, "panic") {
				t.Fatalf("%v panicked instead of erroring:\n%s", c.args, s)
			}
			for _, w := range c.want {
				if !strings.Contains(s, w) {
					t.Fatalf("%v error does not mention %q:\n%s", c.args, w, s)
				}
			}
		})
	}
}

// A >255-node fabric runs end to end through ampsim under the default
// v2 wire format — the zero→10k-node path the versioned codec exists
// for. Kept small (300 nodes, short run) so the smoke stays cheap.
func TestAmpsimRunsPast255Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ampsim via `go run`")
	}
	out, err := exec.Command("go", "run", "./cmd/ampsim",
		"-nodes", "260", "-switches", "4", "-shards", "4", "-run", "1ms").CombinedOutput()
	if err != nil {
		t.Fatalf("ampsim -nodes 260: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "[wire v2]") {
		t.Fatalf("ampsim did not report wire v2:\n%s", s)
	}
	if !strings.Contains(s, "size 260") {
		t.Fatalf("260-node ring did not form:\n%s", s)
	}
}

package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestPlanKindTableIsClosed: the kinds table is the only definition of
// a plan-event kind, so every kind below the sentinel needs a complete
// row, a spelling of its own, and a counterpart that undoes it (same
// target, opposite state) — otherwise Validate's state machine could
// never accept the kind twice.
func TestPlanKindTableIsClosed(t *testing.T) {
	names := map[string]EventKind{}
	for k := EventKind(0); k < evKinds; k++ {
		row := kinds[k]
		if row.name == "" || row.pre == "" || row.apply == nil || row.target > onTrunk {
			t.Errorf("kind %d has an incomplete row: %+v", k, row)
		}
		if prev, dup := names[row.name]; dup {
			t.Errorf("kinds %d and %d share the spelling %q", prev, k, row.name)
		}
		names[row.name] = k
		if k.String() != row.name {
			t.Errorf("kind %d prints as %q, want %q", k, k, row.name)
		}
		inverses := 0
		for _, other := range kinds {
			if other.target == row.target && other.up != row.up {
				inverses++
			}
		}
		if inverses != 1 {
			t.Errorf("%v has %d inverse kinds on its target, want 1", k, inverses)
		}
	}
	if got := evKinds.String(); got != "EventKind(8)" {
		t.Errorf("sentinel prints as %q", got)
	}
}

// One event of every kind survives the script round trip, with its ids
// in the fields its target class uses and -1 in the others.
func TestPlanKindsRoundTrip(t *testing.T) {
	var p Plan
	for k := EventKind(0); k < evKinds; k++ {
		target := kinds[k].target
		want := Event{At: sim.Time(k+1) * sim.Millisecond, Kind: k, Node: -1, Switch: -1}
		var ids []int
		if target.usesNode() {
			want.Node, ids = 3, append(ids, 3)
		}
		if target.usesSwitch() {
			want.Switch, ids = 1, append(ids, 1)
		}
		e := newEvent(want.At, k, ids...)
		if e != want {
			t.Errorf("newEvent(%v, %v) = %+v, want %+v", k, ids, e, want)
		}
		if got := e.ids(); len(got) != len(ids) {
			t.Errorf("%v: ids() = %v, want %v", k, got, ids)
		}
		p = append(p, e)
	}
	script := FormatPlan(p)
	got, err := ParsePlan(script)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", script, err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip of %q:\n got  %v\n want %v", script, got, p)
	}
}

// The messages callers and scripts already see stay word for word.
func TestPlanKindMessages(t *testing.T) {
	for script, want := range map[string]string{
		"10ms melt-node 1":        `core: plan entry "10ms melt-node 1": unknown op "melt-node"`,
		"10ms crash-node 1 2":     `core: plan entry "10ms crash-node 1 2": op crash-node takes one id`,
		"10ms fail-trunk":         `core: plan entry "10ms fail-trunk": want "<offset> <op> <id...>"`,
		"10ms fail-link 1":        `core: plan entry "10ms fail-link 1": op fail-link takes a node and a switch id`,
		"10ms restore-link 1 2 3": `core: plan entry "10ms restore-link 1 2 3": op restore-link takes a node and a switch id`,
	} {
		if _, err := ParsePlan(script); err == nil || err.Error() != want {
			t.Errorf("ParsePlan(%q): err = %v, want %s", script, err, want)
		}
	}
	c := New(Options{Nodes: 4, Switches: 2})
	for want, p := range map[string]Plan{
		"core: plan event 0 (EventKind(8) 0 0 at 0ns): unknown event kind":                                        {{Kind: evKinds}},
		"core: plan event 1 (crash-node 2 at 1.000ms): node 2 is already crashed (double crash without a reboot)": {CrashNode(0, 2), CrashNode(sim.Millisecond, 2)},
		"core: plan event 0 (restore-link 1 0 at 0ns): link 1-0 is not cut":                                       {RestoreLink(0, 1, 0)},
		"core: plan event 0 (fail-trunk 0 at 0ns): trunk id out of range [0,0) (this fabric has 0 trunks)":        {FailTrunk(0, 0)},
	} {
		if err := p.Validate(c); err == nil || err.Error() != want {
			t.Errorf("Validate(%v): err = %v, want %s", p, err, want)
		}
	}
}

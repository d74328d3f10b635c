package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ampdk"
	"repro/internal/sim"
)

// EventKind classifies a plan event.
type EventKind uint8

// Plan event kinds: faults and their repairs. Each has one row in
// kinds and one constructor below; nothing else names a kind.
const (
	EvCrashNode EventKind = iota
	EvRebootNode
	EvFailSwitch
	EvRestoreSwitch
	EvFailLink
	EvRestoreLink
	EvFailTrunk
	EvRestoreTrunk
	evKinds // sentinel: the number of kinds
)

// target is the class of thing a kind acts on. It fixes which Event
// fields carry ids (a trunk index rides in Switch), hence the script
// arity, and which state vector Validate tracks the event in.
type target uint8

const (
	onNode target = iota
	onSwitch
	onLink
	onTrunk
)

func (t target) usesNode() bool   { return t == onNode || t == onLink }
func (t target) usesSwitch() bool { return t != onNode }

// kinds is the one definition of every plan-event kind. String,
// Event.String, Validate, Cluster.apply and ParsePlan are all derived
// from it: a new kind is one row here and one constructor.
var kinds = [evKinds]struct {
	name   string // plan-script spelling
	target target
	up     bool   // the state the event leaves its target in
	pre    string // Validate's message when the target is already in that state, a format over the event's ids
	apply  func(*Cluster, Event)
}{
	EvCrashNode: {"crash-node", onNode, false, "node %d is already crashed (double crash without a reboot)",
		func(c *Cluster, e Event) { c.CrashNode(e.Node) }},
	EvRebootNode: {"reboot-node", onNode, true, "node %d is not crashed",
		func(c *Cluster, e Event) { c.RebootNode(e.Node) }},
	EvFailSwitch: {"fail-switch", onSwitch, false, "switch %d is already failed",
		func(c *Cluster, e Event) { c.FailSwitch(e.Switch) }},
	EvRestoreSwitch: {"restore-switch", onSwitch, true, "switch %d is not failed",
		func(c *Cluster, e Event) { c.RestoreSwitch(e.Switch) }},
	EvFailLink: {"fail-link", onLink, false, "link %d-%d is already cut",
		func(c *Cluster, e Event) { c.FailLink(e.Node, e.Switch) }},
	EvRestoreLink: {"restore-link", onLink, true, "link %d-%d is not cut",
		func(c *Cluster, e Event) { c.RestoreLink(e.Node, e.Switch) }},
	EvFailTrunk: {"fail-trunk", onTrunk, false, "trunk %d is already cut",
		func(c *Cluster, e Event) { c.FailTrunk(e.Switch) }},
	EvRestoreTrunk: {"restore-trunk", onTrunk, true, "trunk %d is not cut",
		func(c *Cluster, e Event) { c.RestoreTrunk(e.Switch) }},
}

// String names the kind in the plan-script spelling.
func (k EventKind) String() string {
	if k < evKinds {
		return kinds[k].name
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one scheduled fault or repair. At is an offset from the
// moment the plan is installed (Cluster.Install) — not an absolute
// time — so the same Plan value replays identically on any cluster.
// Node and Switch are -1 when the kind does not use them; trunk events
// carry the trunk index in Switch.
type Event struct {
	At     sim.Time
	Kind   EventKind
	Node   int
	Switch int
}

// newEvent places ids in the fields the kind's target uses; ids is its
// inverse, in script order.
func newEvent(at sim.Time, k EventKind, ids ...int) Event {
	e := Event{At: at, Kind: k, Node: -1, Switch: -1}
	t := kinds[k].target
	if t.usesNode() {
		e.Node, ids = ids[0], ids[1:]
	}
	if t.usesSwitch() {
		e.Switch = ids[0]
	}
	return e
}

func (e Event) ids() []any {
	t := onLink // an unknown kind shows both fields
	if e.Kind < evKinds {
		t = kinds[e.Kind].target
	}
	var ids []any
	if t.usesNode() {
		ids = append(ids, e.Node)
	}
	if t.usesSwitch() {
		ids = append(ids, e.Switch)
	}
	return ids
}

// String renders the event in plan-script syntax (without the time),
// e.g. "crash-node 3" or "fail-link 3 0".
func (e Event) String() string {
	s := e.Kind.String()
	for _, id := range e.ids() {
		s += fmt.Sprintf(" %d", id)
	}
	return s
}

// CrashNode schedules node n to die (NIC and all) at offset at.
func CrashNode(at sim.Time, n int) Event { return newEvent(at, EvCrashNode, n) }

// RebootNode schedules crashed node n to boot back through
// assimilation at offset at.
func RebootNode(at sim.Time, n int) Event { return newEvent(at, EvRebootNode, n) }

// FailSwitch schedules switch s to go dark at offset at.
func FailSwitch(at sim.Time, s int) Event { return newEvent(at, EvFailSwitch, s) }

// RestoreSwitch schedules failed switch s to re-light at offset at.
func RestoreSwitch(at sim.Time, s int) Event { return newEvent(at, EvRestoreSwitch, s) }

// FailLink schedules the fiber between node n and switch s to be cut
// at offset at.
func FailLink(at sim.Time, n, s int) Event { return newEvent(at, EvFailLink, n, s) }

// RestoreLink schedules the cut fiber between node n and switch s to
// be re-spliced at offset at.
func RestoreLink(at sim.Time, n, s int) Event { return newEvent(at, EvRestoreLink, n, s) }

// FailTrunk schedules inter-switch trunk t to be cut at offset at.
// Trunks exist only on fabrics that declare them (Options.Fabric).
func FailTrunk(at sim.Time, t int) Event { return newEvent(at, EvFailTrunk, t) }

// RestoreTrunk schedules cut trunk t to be re-spliced at offset at.
func RestoreTrunk(at sim.Time, t int) Event { return newEvent(at, EvRestoreTrunk, t) }

// Plan is an ordered schedule of faults and repairs. Build one from
// the event constructors (CrashNode, FailSwitch, ...) or ParsePlan,
// then install it with Cluster.Install or run it via Scenario.
type Plan []Event

// Validate checks the plan against the cluster's topology, its current
// fault state and any already-installed pending events, without
// installing anything: every id must be in range, no event may be
// scheduled in the past (negative offset), and the combined
// fault/repair sequence must be coherent — crashing an already-crashed
// node, rebooting a live one, failing a failed switch or restoring a
// healthy link are all rejected up front rather than left to panic
// mid-simulation.
func (p Plan) Validate(c *Cluster) error {
	nodes, switches := len(c.Nodes), len(c.Phys.Switches)
	now := c.Now()

	// Merge the candidate events (offsets made absolute) with the
	// pending events of previously installed plans, then walk them in
	// fire order (stable by time; at equal times the kernel fires in
	// schedule order, i.e. pending before candidate, plan order within
	// each), tracking the state each event would find. Before boot
	// every node counts as up — the boot is about to bring it up.
	type item struct {
		at      sim.Time // absolute fire time
		e       Event
		planIdx int // index into p, or -1 for an installed pending event
	}
	items := make([]item, 0, len(c.pending)+len(p))
	for _, pe := range c.pending {
		items = append(items, item{pe.At, pe.Event, -1})
	}
	for i, e := range p {
		if e.At < 0 {
			return fmt.Errorf("core: plan event %d (%v at %v): scheduled before now (negative offset)", i, e, e.At)
		}
		items = append(items, item{now + e.At, e, i})
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].at < items[b].at })

	// One up/down vector per target class, links flattened to
	// node*switches+switch.
	trunks := len(c.Phys.Trunks)
	up := [...][]bool{
		onNode:   make([]bool, nodes),
		onSwitch: make([]bool, switches),
		onLink:   make([]bool, nodes*switches),
		onTrunk:  make([]bool, trunks),
	}
	for i := range up[onNode] {
		up[onNode][i] = !c.booted || c.Nodes[i].State != ampdk.StateOffline
		for s, l := range c.Phys.NodeLinks[i] {
			up[onLink][i*switches+s] = l != nil && l.Up()
		}
	}
	for i := range up[onSwitch] {
		up[onSwitch][i] = !c.Phys.Switches[i].Failed()
	}
	for i := range up[onTrunk] {
		up[onTrunk][i] = c.Phys.TrunkUp(i)
	}

	for _, it := range items {
		e := it.e
		fail := func(format string, args ...any) error {
			what := fmt.Sprintf("plan event %d (%v at %v)", it.planIdx, e, e.At)
			if it.planIdx < 0 {
				// A pending event was coherent when installed; blame
				// the plan that breaks the combined sequence.
				what = fmt.Sprintf("plan conflicts with installed event (%v at t=%v)", e, it.at)
			}
			return fmt.Errorf("core: %s: %s", what, fmt.Sprintf(format, args...))
		}
		if e.Kind >= evKinds {
			return fail("unknown event kind")
		}
		k := kinds[e.Kind]
		if k.target.usesNode() && (e.Node < 0 || e.Node >= nodes) {
			return fail("node id out of range [0,%d)", nodes)
		}
		if (k.target == onSwitch || k.target == onLink) && (e.Switch < 0 || e.Switch >= switches) {
			return fail("switch id out of range [0,%d)", switches)
		}
		if k.target == onTrunk && (e.Switch < 0 || e.Switch >= trunks) {
			return fail("trunk id out of range [0,%d) (this fabric has %d trunks)", trunks, trunks)
		}
		slot := e.Switch
		if k.target.usesNode() {
			slot = e.Node
		}
		if k.target == onLink {
			slot = e.Node*switches + e.Switch
			if !c.Phys.HasLink(e.Node, e.Switch) {
				return fail("the fabric has no link between node %d and switch %d", e.Node, e.Switch)
			}
		}
		// A fault needs its target up and a repair needs it down: the
		// event must find the opposite of the state it leaves.
		if up[k.target][slot] == k.up {
			return fail(k.pre, e.ids()...)
		}
		up[k.target][slot] = k.up
	}
	return nil
}

// AppliedEvent records a plan event that has fired, stamped with the
// absolute virtual time it fired at.
type AppliedEvent struct {
	At    sim.Time
	Event Event
}

// Install validates the plan — against the cluster's state and any
// events still pending from earlier installs — and schedules every
// event as a coordinator action: the fault fires single-threaded with
// every shard parked on the event's instant, after all model events
// before it and ahead of any at it — the only moment shared fabric
// state (link light, switch health) may change. The installation is
// atomic: an invalid plan schedules nothing. Event offsets are relative
// to the current virtual time. Fired events are recorded (see Applied)
// and reported through OnEvent if set.
//
// Install is driver-context only: call it between Run/Wait* calls (or
// from OnEvent), never from inside a model event callback — that ends
// the run with the engine's named refusal as its sticky error.
func (c *Cluster) Install(p Plan) error {
	if err := p.Validate(c); err != nil {
		return err
	}
	for _, e := range p {
		c.pending = append(c.pending, AppliedEvent{At: c.Now() + e.At, Event: e})
		c.eng.Schedule(c.Now()+e.At, func() { c.apply(e) })
	}
	return nil
}

func (c *Cluster) apply(e Event) {
	for i, pe := range c.pending {
		if pe.Event == e && pe.At == c.Now() {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	kinds[e.Kind].apply(c, e)
	c.applied = append(c.applied, AppliedEvent{At: c.Now(), Event: e})
	if c.OnEvent != nil {
		c.OnEvent(e)
	}
}

// Applied returns the plan events that have fired so far, in fire
// order.
func (c *Cluster) Applied() []AppliedEvent { return c.applied }

// ParsePlan parses a plan script: semicolon- or newline-separated
// entries of the form "<offset> <op> <args>", where offset is a Go
// duration and op is one of the event-kind spellings:
//
//	10ms fail-switch 0; 20ms restore-switch 0
//	5ms crash-node 3; 25ms reboot-node 3
//	1ms fail-link 3 0
//	2ms fail-trunk 0; 12ms restore-trunk 0
//
// This is the -plan syntax of cmd/ampsim. FormatPlan is its inverse.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	entries := strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '\n' })
	for _, entry := range entries {
		fields := strings.Fields(entry)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("core: plan entry %q: want \"<offset> <op> <id...>\"", strings.TrimSpace(entry))
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("core: plan entry %q: bad offset: %v", strings.TrimSpace(entry), err)
		}
		at := sim.Time(d.Nanoseconds())
		args := make([]int, len(fields)-2)
		for i, f := range fields[2:] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("core: plan entry %q: bad id %q", strings.TrimSpace(entry), f)
			}
			args[i] = v
		}
		k := EventKind(0)
		for k < evKinds && kinds[k].name != fields[1] {
			k++
		}
		if k == evKinds {
			return nil, fmt.Errorf("core: plan entry %q: unknown op %q", strings.TrimSpace(entry), fields[1])
		}
		if len(args) != len(Event{Kind: k}.ids()) {
			takes := "one id"
			if kinds[k].target == onLink {
				takes = "a node and a switch id"
			}
			return nil, fmt.Errorf("core: plan entry %q: op %s takes %s", strings.TrimSpace(entry), fields[1], takes)
		}
		p = append(p, newEvent(at, k, args...))
	}
	return p, nil
}

// FormatPlan renders a plan in the plan-script syntax ParsePlan
// accepts, one entry per event: "10ms fail-switch 0; 20ms
// restore-switch 0". ParsePlan(FormatPlan(p)) reproduces p exactly for
// any valid plan (offsets round-trip through Go duration formatting).
func FormatPlan(p Plan) string {
	var b strings.Builder
	for i, e := range p {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%v %s", time.Duration(e.At), e)
	}
	return b.String()
}

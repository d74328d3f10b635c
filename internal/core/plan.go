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

// Plan event kinds: faults and their repairs.
const (
	EvCrashNode EventKind = iota
	EvRebootNode
	EvFailSwitch
	EvRestoreSwitch
	EvFailLink
	EvRestoreLink
	EvFailTrunk
	EvRestoreTrunk
)

// String names the kind in the plan-script spelling.
func (k EventKind) String() string {
	switch k {
	case EvCrashNode:
		return "crash-node"
	case EvRebootNode:
		return "reboot-node"
	case EvFailSwitch:
		return "fail-switch"
	case EvRestoreSwitch:
		return "restore-switch"
	case EvFailLink:
		return "fail-link"
	case EvRestoreLink:
		return "restore-link"
	case EvFailTrunk:
		return "fail-trunk"
	case EvRestoreTrunk:
		return "restore-trunk"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
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

// String renders the event in plan-script syntax (without the time),
// e.g. "crash-node 3" or "fail-link 3 0".
func (e Event) String() string {
	switch e.Kind {
	case EvCrashNode, EvRebootNode:
		return fmt.Sprintf("%v %d", e.Kind, e.Node)
	case EvFailSwitch, EvRestoreSwitch, EvFailTrunk, EvRestoreTrunk:
		return fmt.Sprintf("%v %d", e.Kind, e.Switch)
	default:
		return fmt.Sprintf("%v %d %d", e.Kind, e.Node, e.Switch)
	}
}

// CrashNode schedules node n to die (NIC and all) at offset at.
func CrashNode(at sim.Time, n int) Event {
	return Event{At: at, Kind: EvCrashNode, Node: n, Switch: -1}
}

// RebootNode schedules crashed node n to boot back through
// assimilation at offset at.
func RebootNode(at sim.Time, n int) Event {
	return Event{At: at, Kind: EvRebootNode, Node: n, Switch: -1}
}

// FailSwitch schedules switch s to go dark at offset at.
func FailSwitch(at sim.Time, s int) Event {
	return Event{At: at, Kind: EvFailSwitch, Node: -1, Switch: s}
}

// RestoreSwitch schedules failed switch s to re-light at offset at.
func RestoreSwitch(at sim.Time, s int) Event {
	return Event{At: at, Kind: EvRestoreSwitch, Node: -1, Switch: s}
}

// FailLink schedules the fiber between node n and switch s to be cut
// at offset at.
func FailLink(at sim.Time, n, s int) Event {
	return Event{At: at, Kind: EvFailLink, Node: n, Switch: s}
}

// RestoreLink schedules the cut fiber between node n and switch s to
// be re-spliced at offset at.
func RestoreLink(at sim.Time, n, s int) Event {
	return Event{At: at, Kind: EvRestoreLink, Node: n, Switch: s}
}

// FailTrunk schedules inter-switch trunk t to be cut at offset at.
// Trunks exist only on fabrics that declare them (Options.Fabric).
func FailTrunk(at sim.Time, t int) Event {
	return Event{At: at, Kind: EvFailTrunk, Node: -1, Switch: t}
}

// RestoreTrunk schedules cut trunk t to be re-spliced at offset at.
func RestoreTrunk(at sim.Time, t int) Event {
	return Event{At: at, Kind: EvRestoreTrunk, Node: -1, Switch: t}
}

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

	trunks := len(c.Phys.Trunks)
	nodeUp := make([]bool, nodes)
	swUp := make([]bool, switches)
	linkUp := make([][]bool, nodes)
	linkExists := make([][]bool, nodes)
	trunkUp := make([]bool, trunks)
	for i := range nodeUp {
		nodeUp[i] = !c.booted || c.Nodes[i].State != ampdk.StateOffline
		linkUp[i] = make([]bool, switches)
		linkExists[i] = make([]bool, switches)
		for s := range linkUp[i] {
			if l := c.Phys.NodeLinks[i][s]; l != nil {
				linkExists[i][s] = true
				linkUp[i][s] = l.Up()
			}
		}
	}
	for i := range swUp {
		swUp[i] = !c.Phys.Switches[i].Failed()
	}
	for i := range trunkUp {
		trunkUp[i] = c.Phys.TrunkUp(i)
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
		needNode := e.Kind == EvCrashNode || e.Kind == EvRebootNode || e.Kind == EvFailLink || e.Kind == EvRestoreLink
		needSwitch := e.Kind == EvFailSwitch || e.Kind == EvRestoreSwitch || e.Kind == EvFailLink || e.Kind == EvRestoreLink
		needTrunk := e.Kind == EvFailTrunk || e.Kind == EvRestoreTrunk
		if needNode && (e.Node < 0 || e.Node >= nodes) {
			return fail("node id out of range [0,%d)", nodes)
		}
		if needSwitch && (e.Switch < 0 || e.Switch >= switches) {
			return fail("switch id out of range [0,%d)", switches)
		}
		if needTrunk && (e.Switch < 0 || e.Switch >= trunks) {
			return fail("trunk id out of range [0,%d) (this fabric has %d trunks)", trunks, trunks)
		}
		if (e.Kind == EvFailLink || e.Kind == EvRestoreLink) && !linkExists[e.Node][e.Switch] {
			return fail("the fabric has no link between node %d and switch %d", e.Node, e.Switch)
		}
		switch e.Kind {
		case EvCrashNode:
			if !nodeUp[e.Node] {
				return fail("node %d is already crashed (double crash without a reboot)", e.Node)
			}
			nodeUp[e.Node] = false
		case EvRebootNode:
			if nodeUp[e.Node] {
				return fail("node %d is not crashed", e.Node)
			}
			nodeUp[e.Node] = true
		case EvFailSwitch:
			if !swUp[e.Switch] {
				return fail("switch %d is already failed", e.Switch)
			}
			swUp[e.Switch] = false
		case EvRestoreSwitch:
			if swUp[e.Switch] {
				return fail("switch %d is not failed", e.Switch)
			}
			swUp[e.Switch] = true
		case EvFailLink:
			if !linkUp[e.Node][e.Switch] {
				return fail("link %d-%d is already cut", e.Node, e.Switch)
			}
			linkUp[e.Node][e.Switch] = false
		case EvRestoreLink:
			if linkUp[e.Node][e.Switch] {
				return fail("link %d-%d is not cut", e.Node, e.Switch)
			}
			linkUp[e.Node][e.Switch] = true
		case EvFailTrunk:
			if !trunkUp[e.Switch] {
				return fail("trunk %d is already cut", e.Switch)
			}
			trunkUp[e.Switch] = false
		case EvRestoreTrunk:
			if trunkUp[e.Switch] {
				return fail("trunk %d is not cut", e.Switch)
			}
			trunkUp[e.Switch] = true
		default:
			return fail("unknown event kind")
		}
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
// from OnEvent), never from inside a model event callback — the engine
// panics with "parsim: action scheduled from inside a window".
func (c *Cluster) Install(p Plan) error {
	if err := p.Validate(c); err != nil {
		return err
	}
	for _, e := range p {
		e := e
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
	switch e.Kind {
	case EvCrashNode:
		c.CrashNode(e.Node)
	case EvRebootNode:
		c.RebootNode(e.Node)
	case EvFailSwitch:
		c.FailSwitch(e.Switch)
	case EvRestoreSwitch:
		c.RestoreSwitch(e.Switch)
	case EvFailLink:
		c.FailLink(e.Node, e.Switch)
	case EvRestoreLink:
		c.RestoreLink(e.Node, e.Switch)
	case EvFailTrunk:
		c.FailTrunk(e.Switch)
	case EvRestoreTrunk:
		c.RestoreTrunk(e.Switch)
	}
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
		one := func(mk func(sim.Time, int) Event) error {
			if len(args) != 1 {
				return fmt.Errorf("core: plan entry %q: op %s takes one id", strings.TrimSpace(entry), fields[1])
			}
			p = append(p, mk(at, args[0]))
			return nil
		}
		two := func(mk func(sim.Time, int, int) Event) error {
			if len(args) != 2 {
				return fmt.Errorf("core: plan entry %q: op %s takes a node and a switch id", strings.TrimSpace(entry), fields[1])
			}
			p = append(p, mk(at, args[0], args[1]))
			return nil
		}
		switch fields[1] {
		case "crash-node":
			err = one(CrashNode)
		case "reboot-node":
			err = one(RebootNode)
		case "fail-switch":
			err = one(FailSwitch)
		case "restore-switch":
			err = one(RestoreSwitch)
		case "fail-link":
			err = two(FailLink)
		case "restore-link":
			err = two(RestoreLink)
		case "fail-trunk":
			err = one(FailTrunk)
		case "restore-trunk":
			err = one(RestoreTrunk)
		default:
			err = fmt.Errorf("core: plan entry %q: unknown op %q", strings.TrimSpace(entry), fields[1])
		}
		if err != nil {
			return nil, err
		}
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

// Package trace provides a structured event timeline for a running
// cluster: roster adoptions, peer liveness transitions, node lifecycle,
// trunk cuts and typed frame losses, each stamped with virtual time. It
// observes the cluster through its public hooks (chaining any
// already-installed callbacks), so attaching a tracer changes no
// behavior.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/frameacct"
	"repro/internal/rostering"
	"repro/internal/sim"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds.
const (
	KindRoster Kind = iota
	KindOnline
	KindPeerDown
	KindPeerUp
	KindFrameLoss
	KindTrunkFail
	// KindWindowFence marks an engine barrier that moved state: a drain
	// that delivered cross-shard frames or deferred routes, or a fence
	// forced by a coordinator action. Pure-idle barriers are not
	// recorded, so the timeline stays proportional to activity; a
	// one-shard run has only the coordinator fences.
	KindWindowFence
	// KindActionRun marks a fired plan event (a coordinator action), so
	// engine fences interleave with the roster/liveness timeline they
	// caused.
	KindActionRun
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRoster:
		return "ROSTER"
	case KindOnline:
		return "ONLINE"
	case KindPeerDown:
		return "PEER-DOWN"
	case KindPeerUp:
		return "PEER-UP"
	case KindFrameLoss:
		return "FRAME-LOSS"
	case KindTrunkFail:
		return "TRUNK-FAIL"
	case KindWindowFence:
		return "FENCE"
	case KindActionRun:
		return "ACTION"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one timeline entry.
type Event struct {
	At   sim.Time
	Kind Kind
	Node int    // observing node (-1 for shard- or fabric-scoped events)
	Arg  int    // peer id / ring size / loss cause / trunk id, by kind
	Text string // human-readable detail
}

// Tracer accumulates events from one cluster. Events are buffered per
// observing node — each node's hooks fire on that node's kernel, so
// the buffers are single-writer even on the parallel sharded engine —
// and merged into one (time, node)-ordered timeline on read.
type Tracer struct {
	perNode [][]Event
	// perNet buffers the frame-loss timeline per shard Net: the ledger
	// Observer fires on the owning shard's kernel, so these buffers too
	// are single-writer under shards.
	perNet [][]Event
	// fabric buffers fabric-scoped events (trunk failures). Plan events
	// fire single-threaded — on the serial kernel, or at a window
	// barrier with every shard parked — so one buffer suffices.
	fabric []Event
}

// Attach installs a tracer on every node of the cluster, chaining the
// hooks already present.
func Attach(c *core.Cluster) *Tracer {
	t := &Tracer{
		perNode: make([][]Event, len(c.Nodes)),
		perNet:  make([][]Event, len(c.Nets)),
	}
	for s, net := range c.Nets {
		s, net := s, net
		// The ledger Observer is a pure callback (no kernel events), so
		// chaining it keeps attachment behavior-neutral.
		prevObs := net.Acct.Observer
		net.Acct.Observer = func(cause frameacct.LossCause, n int) {
			t.perNet[s] = append(t.perNet[s], Event{
				At: net.K.Now(), Kind: KindFrameLoss, Node: -1, Arg: int(cause),
				Text: fmt.Sprintf("%d frame(s) lost: %s (net %d)", n, cause, s),
			})
			if prevObs != nil {
				prevObs(cause, n)
			}
		}
	}
	prevEvent := c.OnEvent
	c.OnEvent = func(e core.Event) {
		// Plan events fire single-threaded (serial kernel, or at a fence
		// with every shard parked), so the fabric buffer is safe here.
		t.fabric = append(t.fabric, Event{
			At: c.Now(), Kind: KindActionRun, Node: -1, Arg: int(e.Kind),
			Text: e.String(),
		})
		if e.Kind == core.EvFailTrunk {
			t.fabric = append(t.fabric, Event{
				At: c.Now(), Kind: KindTrunkFail, Node: -1, Arg: e.Switch,
				Text: fmt.Sprintf("trunk %d cut", e.Switch),
			})
		}
		if prevEvent != nil {
			prevEvent(e)
		}
	}
	// Engine barriers. Only barriers that moved state are kept — a drain
	// that delivered something, or a coordinator-work fence (the only
	// kind a one-shard run has) — so quiet runs don't flood the timeline
	// with idle window crossings. The
	// hook runs on the driver goroutine with all shards parked, so the
	// fabric buffer stays single-writer.
	c.OnBarrier(func(at sim.Time, frames, routes int, action bool) {
		if frames == 0 && routes == 0 && !action {
			return
		}
		text := fmt.Sprintf("barrier: %d frames, %d routes", frames, routes)
		if action {
			text += " (coordinator fence)"
		}
		t.fabric = append(t.fabric, Event{
			At: at, Kind: KindWindowFence, Node: -1, Arg: frames + routes,
			Text: text,
		})
	})
	for i, nd := range c.Nodes {
		i, nd := i, nd
		prevRoster := nd.OnRoster
		nd.OnRoster = func(r *rostering.Roster) {
			t.add(Event{At: nd.K.Now(), Kind: KindRoster, Node: i, Arg: r.Size(),
				Text: r.String()})
			if prevRoster != nil {
				prevRoster(r)
			}
		}
		prevOnline := nd.OnOnline
		nd.OnOnline = func() {
			t.add(Event{At: nd.K.Now(), Kind: KindOnline, Node: i})
			if prevOnline != nil {
				prevOnline()
			}
		}
		prevDown := nd.OnPeerDown
		nd.OnPeerDown = func(id int) {
			t.add(Event{At: nd.K.Now(), Kind: KindPeerDown, Node: i, Arg: id,
				Text: fmt.Sprintf("node %d declared dead by node %d", id, i)})
			if prevDown != nil {
				prevDown(id)
			}
		}
		prevUp := nd.OnPeerUp
		nd.OnPeerUp = func(id int) {
			t.add(Event{At: nd.K.Now(), Kind: KindPeerUp, Node: i, Arg: id,
				Text: fmt.Sprintf("node %d seen alive by node %d", id, i)})
			if prevUp != nil {
				prevUp(id)
			}
		}
	}
	return t
}

func (t *Tracer) add(e Event) {
	t.perNode[e.Node] = append(t.perNode[e.Node], e)
}

// Events returns the accumulated timeline, merged across nodes in
// (time, node) order — deterministic on both engines. Call it (or any
// reader built on it) only while the simulation is parked: between
// Run/Wait calls, or after Scenario.Run returns.
func (t *Tracer) Events() []Event {
	// Rebuilt on every call rather than cached: add runs on shard
	// kernels under shards, and the per-node buffers are
	// the only state it may touch (single-writer; a shared cache
	// invalidation would be a data race).
	var out []Event
	for _, evs := range t.perNode {
		out = append(out, evs...)
	}
	for _, evs := range t.perNet {
		out = append(out, evs...)
	}
	out = append(out, t.fabric...)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].Node < out[b].Node
	})
	return out
}

// Filter returns events of the given kinds (all if none given).
func (t *Tracer) Filter(kinds ...Kind) []Event {
	if len(kinds) == 0 {
		return t.Events()
	}
	var out []Event
	for _, e := range t.Events() {
		for _, k := range kinds {
			if e.Kind == k {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// Dedup collapses identical consecutive roster adoptions from different
// nodes into a single line (they are the point of convergence), keeping
// the first and counting the rest.
func Dedup(events []Event) []Event {
	var out []Event
	var lastRoster string
	count := 0
	flush := func() {
		if count > 1 && len(out) > 0 {
			out[len(out)-1].Text += fmt.Sprintf("  (+%d nodes agree)", count-1)
		}
		count = 0
	}
	for _, e := range events {
		if e.Kind == KindRoster {
			if e.Text == lastRoster {
				count++
				continue
			}
			flush()
			lastRoster = e.Text
			count = 1
			out = append(out, e)
			continue
		}
		flush()
		lastRoster = ""
		out = append(out, e)
	}
	flush()
	return out
}

// Fprint renders a timeline.
func (t *Tracer) Fprint(w io.Writer, events []Event) {
	for _, e := range events {
		text := e.Text
		if text == "" {
			text = fmt.Sprintf("node %d", e.Node)
		}
		fmt.Fprintf(w, "  %-12v %-10s %s\n", e.At, e.Kind, text)
	}
}

// String renders the full deduplicated timeline.
func (t *Tracer) String() string {
	var b strings.Builder
	t.Fprint(&b, Dedup(t.Events()))
	return b.String()
}

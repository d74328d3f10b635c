package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/detmap"
	"repro/internal/frameacct"
	"repro/internal/parsim"
	"repro/internal/rostering"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Scenario binds a cluster configuration, a declarative fault Plan and
// a set of workload generators into one reproducible run. Run boots
// the cluster, installs the plan (offsets are relative to the end of
// boot), starts every load, advances virtual time, then quiesces,
// settles and audits — and returns a machine-readable Report that is
// byte-identical across same-seed runs. It is the top of the public
// API: everything the paper claims ("no down time and no loss of
// data" under switch failures, crashes and assimilation) is a Scenario
// whose Report proves or refutes it.
type Scenario struct {
	// Name labels the report.
	Name string
	// Opts configures the cluster (see Options).
	Opts Options
	// BootWindow bounds boot; 0 selects the Boot default.
	BootWindow sim.Time
	// Plan is the fault/repair schedule, validated before anything is
	// installed. Offsets are relative to the end of boot.
	Plan Plan
	// Loads are started together right after boot.
	Loads []Load
	// For is how long the scenario runs after boot (default 30 ms).
	For sim.Time
	// Settle is extra drain time after the loads quiesce, so in-flight
	// traffic lands in the report (default 5 ms).
	Settle sim.Time
	// OnCluster, if set, sees the assembled cluster before boot —
	// install subscriptions, groups or tracers here.
	OnCluster func(*Cluster)
	// OnBoot, if set, runs right after a successful boot, before the
	// plan is installed.
	OnBoot func(*Cluster)
	// OnEvent, if set, observes every plan event as it fires.
	OnEvent func(Event)
}

// EventReport is one fired plan event in a Report. HealNS is the time
// from the event to the last roster adoption before the next event (or
// the end of the run) — the self-healing window the event caused; 0
// when the event triggered no re-rostering.
type EventReport struct {
	AtNS   int64  `json:"at_ns"`
	Event  string `json:"event"`
	HealNS int64  `json:"heal_ns,omitempty"`
}

// Report is the deterministic, machine-readable outcome of a Scenario.
// Two runs with the same Options.Seed and the same Plan/Loads yield
// byte-identical JSON.
type Report struct {
	Name     string `json:"name,omitempty"`
	Seed     uint64 `json:"seed"`
	Nodes    int    `json:"nodes"`
	Switches int    `json:"switches"`
	// Fabric names the topology shape; Trunks counts its inter-switch
	// trunks (0 on the uniform paper segment).
	Fabric string `json:"fabric,omitempty"`
	Trunks int    `json:"trunks,omitempty"`
	// Wire names the wire-format version when the fabric runs anything
	// newer than the original v1 format (omitted for v1, keeping the
	// historical reports byte-identical).
	Wire string `json:"wire,omitempty"`
	// BootNS is when the cluster settled online; EndNS when the run
	// (including settle) finished.
	BootNS int64 `json:"boot_ns"`
	EndNS  int64 `json:"end_ns"`
	// RingSize and Roster describe the final logical ring.
	RingSize int    `json:"ring_size"`
	Roster   string `json:"roster"`
	// Healed reports whether the cluster ended settled (see
	// Cluster.Healed).
	Healed bool `json:"healed"`
	// Drops are congestion drops (must stay 0 — the slide-8
	// guarantee); Lost are frames destroyed by failures; Delivered is
	// total fabric deliveries. All three are read from the ledger
	// below (fifo_full; dark_port + link_cut; wire_delivered).
	Drops     uint64 `json:"congestion_drops"`
	Lost      uint64 `json:"failure_losses"`
	Delivered uint64 `json:"frames_delivered"`
	// Frames is the frame-lifecycle ledger: where every frame the run
	// created ended up, by typed cause (see internal/frameacct). It is
	// a fabric-wide sum, so it is part of the surface that is
	// byte-identical across shard counts.
	Frames *FrameReport `json:"frame_accounting,omitempty"`
	// Events are the fired plan events with their heal windows.
	Events []EventReport `json:"events,omitempty"`
	// Loads are the per-load delivery reports.
	Loads []LoadReport `json:"loads,omitempty"`

	// Partition observability. Excluded from the JSON on purpose: the
	// defining equivalence property is that reports are byte-identical
	// at every shard count, so anything shard-specific may only surface
	// in Summary.
	Shards       int     `json:"-"` // shard count the run used
	Partition    string  `json:"-"` // switch→shard map, "0,0,1,1"
	CutLinks     int     `json:"-"` // links crossing shards
	MinCutFiberM float64 `json:"-"` // shortest cross-shard fiber, meters

	// Det is the deterministic telemetry plane: the engine's own
	// counters, sampled at barriers from virtual-plane quantities only
	// and byte-reproducible for a given simulation at a given shard
	// count. Like the partition fields above it stays out of the JSON
	// so reports remain byte-identical across shard counts; it prints
	// in Summary.
	Det *TelemetryReport `json:"-"`
}

// TelemetryReport is the deterministic telemetry plane of a run, as the
// engine keeps it: the fabric-wide window/barrier counters, the
// per-shard detail, the window bound, and the heal-span latency
// histogram over the run's plan events (the nonzero EventReport.HealNS
// values). Everything derives from virtual-plane quantities only
// (kernel fired counts, barrier batch sizes, sim-time spans).
type TelemetryReport struct {
	parsim.Stats
	Shards []parsim.ShardStat
	// Lookahead is the window bound; sim.MaxTime when nothing crosses
	// shards (always at one shard).
	Lookahead sim.Time
	Heal      telemetry.Hist
}

// FrameReport is the Report's frame-accounting section: the fabric-wide
// conservation ledger plus per-device loss detail. Maps hold only
// nonzero counters, keyed by the stable frameacct cause/kind names
// (encoding/json sorts map keys, so the section is deterministic).
type FrameReport struct {
	// Origins is fresh traffic put on a wire (offers minus transit
	// relaunches); Offered counts every Send including relaunches.
	Origins    uint64 `json:"origins"`
	Offered    uint64 `json:"offered"`
	Relaunched uint64 `json:"relaunched,omitempty"`
	// WireDelivered counts frames that survived their flight and
	// reached a receiving handler.
	WireDelivered uint64 `json:"wire_delivered"`
	// Consumed counts legitimate frame ends by kind; Losses counts
	// typed deaths by cause.
	Consumed map[string]uint64 `json:"consumed,omitempty"`
	Losses   map[string]uint64 `json:"losses,omitempty"`
	// HostCopies counts broadcast copies observed by transit hosts
	// (the frame itself continued its tour).
	HostCopies uint64 `json:"host_copies,omitempty"`
	// Residual gauges: frames still in FIFOs, on fibers, or inside
	// device latency stages when the report was taken.
	InFifo   int64 `json:"in_fifo,omitempty"`
	InFlight int64 `json:"in_flight,omitempty"`
	InDevice int64 `json:"in_device,omitempty"`
	// Conserved is the machine-checked invariant: origins all end as
	// consumption, a typed loss, or a residual.
	Conserved bool `json:"conserved"`
	// NodeLosses / SwitchLosses break MAC and switch losses down per
	// device ("n3/unrouted_transit", "sw1/unrouted"), from the per-device
	// diagnostic counters (engine-independent, like everything above).
	NodeLosses   map[string]uint64 `json:"node_losses,omitempty"`
	SwitchLosses map[string]uint64 `json:"switch_losses,omitempty"`
}

// frameReport builds the Report section from the fabric-wide ledger a
// and the per-device diagnostic counters.
func frameReport(c *Cluster, a *frameacct.Acct) *FrameReport {
	fr := &FrameReport{
		Origins:       a.Origins(),
		Offered:       a.Offered,
		Relaunched:    a.Relaunched,
		WireDelivered: a.WireDelivered,
		Consumed:      a.ConsumeMap(),
		Losses:        a.LossMap(),
		HostCopies:    a.HostCopies,
		InFifo:        a.InFifo,
		InFlight:      a.InFlight,
		InDevice:      a.InDevice,
		Conserved:     a.Conserved(),
	}
	add := func(m *map[string]uint64, key string, v uint64) {
		if v == 0 {
			return
		}
		if *m == nil {
			*m = map[string]uint64{}
		}
		(*m)[key] = v
	}
	for i, nd := range c.Nodes {
		add(&fr.NodeLosses, fmt.Sprintf("n%d/unrouted_transit", i), nd.Station.Unrouted)
		add(&fr.NodeLosses, fmt.Sprintf("n%d/hop_expired", i), nd.Station.Expired)
	}
	for s, sw := range c.Phys.Switches {
		add(&fr.SwitchLosses, fmt.Sprintf("sw%d/unrouted", s), sw.Unrouted)
		add(&fr.SwitchLosses, fmt.Sprintf("sw%d/flood_expired", s), sw.FloodExpired)
		add(&fr.SwitchLosses, fmt.Sprintf("sw%d/flood_deduped", s), sw.FloodDeduped)
	}
	return fr
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil { // a Report is always marshalable
		panic(err)
	}
	return append(b, '\n')
}

// Summary renders a human-readable digest of the report.
func (r *Report) Summary() string {
	var b strings.Builder
	name := r.Name
	if name == "" {
		name = "scenario"
	}
	fabric := ""
	if r.Fabric != "" && r.Fabric != "uniform" {
		fabric = fmt.Sprintf(" (%s fabric, %d trunks)", r.Fabric, r.Trunks)
	}
	if r.Wire != "" {
		fabric += fmt.Sprintf(" [wire %s]", r.Wire)
	}
	fmt.Fprintf(&b, "%s: %d nodes × %d switches%s, seed %d\n", name, r.Nodes, r.Switches, fabric, r.Seed)
	fmt.Fprintf(&b, "  online after %v\n", sim.Time(r.BootNS))
	if d := r.Det; d != nil {
		la := "unbounded (no link crosses shards)"
		if d.Lookahead != sim.MaxTime {
			la = d.Lookahead.String()
		}
		fmt.Fprintf(&b, "  shards: %d, partition [%s], cut %d links (min fiber %.0f m), lookahead %s\n",
			r.Shards, r.Partition, r.CutLinks, r.MinCutFiberM, la)
		fmt.Fprintf(&b, "  engine: %d windows (%d advances), %d barriers (%d fences), %d actions; %d frames + %d routes crossed shards\n",
			d.Windows, d.Advances, d.Barriers, d.Fences, d.Actions, d.Frames, d.Routes)
		for _, s := range d.Shards {
			fmt.Fprintf(&b, "    shard %d: %d events, busy %d/%d windows, occupancy %s ev/window\n",
				s.Shard, s.Events, s.BusyWindows, s.Windows, histLine(&s.EvPerWindow))
		}
		if h := d.Heal; h.N > 0 {
			fmt.Fprintf(&b, "    heal spans: %d observed, mean %v, max %v\n",
				h.N, sim.Time(h.Sum/h.N), sim.Time(h.Max))
		}
	}
	for _, e := range r.Events {
		fmt.Fprintf(&b, "  t=%-12v %s", sim.Time(e.AtNS), e.Event)
		if e.HealNS > 0 {
			fmt.Fprintf(&b, "  (ring healed in %v)", sim.Time(e.HealNS))
		}
		b.WriteByte('\n')
	}
	for _, l := range r.Loads {
		fmt.Fprintf(&b, "  load %s: sent %d, delivered %d, gaps %d", l.Name, l.Sent, l.Delivered, l.Gaps)
		if l.Iters > 0 {
			fmt.Fprintf(&b, ", iters %d", l.Iters)
		}
		if l.Files > 0 {
			fmt.Fprintf(&b, ", files %d (%d B)", l.Files, l.Bytes)
		}
		if l.MaxLatencyNS > 0 {
			fmt.Fprintf(&b, ", max latency %v", sim.Time(l.MaxLatencyNS))
		}
		b.WriteByte('\n')
	}
	healed := "healed"
	if !r.Healed {
		healed = "NOT HEALED"
	}
	fmt.Fprintf(&b, "  final ring %s (size %d, %s)\n", r.Roster, r.RingSize, healed)
	fmt.Fprintf(&b, "  congestion drops %d, failure losses %d, frames delivered %d\n",
		r.Drops, r.Lost, r.Delivered)
	if fr := r.Frames; fr != nil {
		conserved := "conserved"
		if !fr.Conserved {
			conserved = "NOT CONSERVED"
		}
		fmt.Fprintf(&b, "  frames: %d origins (+%d relaunches), %d wire-delivered, %s\n",
			fr.Origins, fr.Relaunched, fr.WireDelivered, conserved)
		if line := countLine(fr.Consumed); line != "" {
			fmt.Fprintf(&b, "    consumed  %s\n", line)
		}
		if line := countLine(fr.Losses); line != "" {
			fmt.Fprintf(&b, "    losses    %s\n", line)
		}
		if fr.InFifo != 0 || fr.InFlight != 0 || fr.InDevice != 0 {
			fmt.Fprintf(&b, "    residual  in-fifo %d, in-flight %d, in-device %d\n",
				fr.InFifo, fr.InFlight, fr.InDevice)
		}
	}
	return b.String()
}

// histLine renders a Hist as a compact mean/max digest.
func histLine(h *telemetry.Hist) string {
	if h.N == 0 {
		return "mean 0, max 0"
	}
	return fmt.Sprintf("mean %d, max %d", h.Sum/h.N, h.Max)
}

// countLine renders a counter map as "name 3, name 7" in key order.
func countLine(m map[string]uint64) string {
	var b strings.Builder
	for _, k := range detmap.SortedKeys(m) {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", k, m[k])
	}
	return b.String()
}

// reportWire names the cluster's wire-format version for a Report:
// empty for the historical v1 (so pre-versioning reports stay byte
// identical), the version string otherwise.
func reportWire(c *Cluster) string {
	if v := c.WireVersion(); v != wire.V1 {
		return v.String()
	}
	return ""
}

// Run executes the scenario and returns its report.
func (s Scenario) Run() (*Report, error) {
	// A scenario is user input end to end, so what New panics on — a
	// malformed fabric, an explicit v1 on a >255-node fabric, a BER
	// that cannot act or too few switches for the shard count — is an
	// error here, and so is a negative duration (zero selects the
	// default).
	for _, d := range []struct {
		name string
		v    sim.Time
	}{{"For", s.For}, {"Settle", s.Settle}, {"BootWindow", s.BootWindow}} {
		if d.v < 0 {
			return nil, fmt.Errorf("core: negative Scenario.%s %v", d.name, d.v)
		}
	}
	c, err := build(s.Opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if s.OnCluster != nil {
		s.OnCluster(c)
	}
	// Record every roster adoption (chaining any hooks OnCluster
	// installed) to attribute heal windows to plan events. Adoptions
	// are kept per node: each node's hook fires on its own shard's
	// kernel, so the slices are single-writer
	// (and the heal-window scan below is order-insensitive).
	adopts := make([][]sim.Time, len(c.Nodes))
	for i, nd := range c.Nodes {
		i, nd := i, nd
		prev := nd.OnRoster
		nd.OnRoster = func(r *rostering.Roster) {
			adopts[i] = append(adopts[i], nd.K.Now())
			if prev != nil {
				prev(r)
			}
		}
	}
	if s.OnEvent != nil {
		prev := c.OnEvent
		c.OnEvent = func(e Event) {
			s.OnEvent(e)
			if prev != nil {
				prev(e)
			}
		}
	}
	if err := c.Boot(s.BootWindow); err != nil {
		return nil, err
	}
	if s.OnBoot != nil {
		s.OnBoot(c)
	}
	bootNS := c.Now()
	runFor := s.For
	if runFor == 0 {
		runFor = 30 * sim.Millisecond
	}
	settle := s.Settle
	if settle == 0 {
		settle = 5 * sim.Millisecond
	}
	// Every plan event must fit in the run: an event past For+Settle
	// would silently never fire and vanish from the report.
	for i, e := range s.Plan {
		if e.At > runFor+settle {
			return nil, fmt.Errorf("core: scenario plan event %d (%v at %v) is beyond For+Settle (%v) and would never fire",
				i, e, e.At, runFor+settle)
		}
	}
	if err := c.Install(s.Plan); err != nil {
		return nil, err
	}
	for _, l := range s.Loads {
		if err := l.check(c); err != nil {
			return nil, err
		}
	}
	actives := make([]*ActiveLoad, len(s.Loads))
	for i, l := range s.Loads {
		actives[i] = c.startLoad(l)
	}
	c.Run(runFor)
	if err := c.Err(); err != nil {
		return nil, err
	}
	for _, a := range actives {
		a.Quiesce()
	}
	c.Run(settle)
	if err := c.Err(); err != nil {
		return nil, err
	}

	rep := c.report(s.Name)
	rep.BootNS = int64(bootNS)
	applied := c.Applied()
	for i, ae := range applied {
		er := EventReport{AtNS: int64(ae.At), Event: ae.Event.String()}
		window := c.Now()
		if i+1 < len(applied) {
			window = applied[i+1].At
		}
		for _, nodeAdopts := range adopts {
			for _, at := range nodeAdopts {
				if at > ae.At && at <= window && int64(at-ae.At) > er.HealNS {
					er.HealNS = int64(at - ae.At)
				}
			}
		}
		rep.Events = append(rep.Events, er)
	}
	for _, a := range actives {
		rep.Loads = append(rep.Loads, *a.Report())
	}
	for _, e := range rep.Events {
		if e.HealNS > 0 {
			rep.Det.Heal.Observe(uint64(e.HealNS))
		}
	}
	return rep, nil
}

// Snapshot captures the cluster's current state as a Report — the
// deterministic JSON form for programs that drive a cluster directly
// (per-node handles, installed plans, StartLoad) instead of through
// Scenario.Run. Fired plan events are included without heal-window
// attribution; pass each finished load's ActiveLoad to append its
// delivery report.
func (c *Cluster) Snapshot(name string, loads ...*ActiveLoad) *Report {
	rep := c.report(name)
	for _, ae := range c.Applied() {
		rep.Events = append(rep.Events, EventReport{AtNS: int64(ae.At), Event: ae.Event.String()})
	}
	for _, a := range loads {
		rep.Loads = append(rep.Loads, *a.Report())
	}
	return rep
}

// report fills everything a Report says about the cluster as it stands
// now — the header, the frame ledger, the partition and the engine's
// counters; events, loads and the boot time are the caller's.
func (c *Cluster) report(name string) *Report {
	a := c.FrameAcct()
	assign := c.Phys.Assign
	return &Report{
		Name:         name,
		Seed:         c.Opts.Seed,
		Nodes:        c.Opts.Nodes,
		Switches:     c.Opts.Switches,
		Fabric:       c.FabricName(),
		Trunks:       c.Phys.NumTrunks(),
		Wire:         reportWire(c),
		EndNS:        int64(c.Now()),
		RingSize:     c.RingSize(),
		Roster:       c.Roster(),
		Healed:       c.Healed(),
		Drops:        a.CongestionDrops(),
		Lost:         a.FailureLosses(),
		Delivered:    a.WireDelivered,
		Frames:       frameReport(c, &a),
		Shards:       assign.Shards,
		Partition:    assign.Partition(),
		CutLinks:     assign.CutLinks,
		MinCutFiberM: assign.MinCutFiberM,
		Det: &TelemetryReport{
			Stats:     c.eng.Stats,
			Shards:    c.eng.ShardStats(),
			Lookahead: c.eng.Lookahead(),
		},
	}
}

package experiments

import (
	"fmt"
	"strings"
)

// Params parameterizes a single experiment run. The zero value means
// "use the experiment's defaults": Merged fills zero fields from a
// spec's Defaults, and a topology variant is merged over them the same
// way.
type Params struct {
	Seed     uint64  // deterministic kernel seed; 0 → 1
	Nodes    int     // node count; 0 → experiment default
	Switches int     // switch count (2=dual, 4=quad redundant); 0 → default
	FiberM   float64 // fiber meters per link; 0 → default
}

// seed returns the effective kernel seed.
func (p Params) seed() uint64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// Merged fills any zero field of p from d.
func (p Params) Merged(d Params) Params {
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.Nodes == 0 {
		p.Nodes = d.Nodes
	}
	if p.Switches == 0 {
		p.Switches = d.Switches
	}
	if p.FiberM == 0 {
		p.FiberM = d.FiberM
	}
	return p
}

// Label renders the topology part of p as a short stable token, e.g.
// "n8.sw4.f1000": it names a variant's section of the committed golden
// and its entry in `ampbench -list`. The seed is deliberately excluded.
func (p Params) Label() string {
	var parts []string
	if p.Nodes != 0 {
		parts = append(parts, fmt.Sprintf("n%d", p.Nodes))
	}
	if p.Switches != 0 {
		parts = append(parts, fmt.Sprintf("sw%d", p.Switches))
	}
	if p.FiberM != 0 {
		parts = append(parts, fmt.Sprintf("f%.0f", p.FiberM))
	}
	if len(parts) == 0 {
		return "default"
	}
	return strings.Join(parts, ".")
}

// Spec names one experiment and how to run it. Run receives merged
// Params (seed + topology); experiments that have no tunable topology
// simply ignore the fields they do not use.
type Spec struct {
	ID       string
	Short    string
	Defaults Params // base topology; zero fields fall back to in-code defaults
	// Variants are further topologies, merged over Defaults, each of
	// which renders a table the defaults do not; every one has its own
	// section of the committed golden beside the defaults'.
	Variants []Params
	Run      func(Params) *Table
}

// All is the experiment index (DESIGN.md §2 points here; ampbench -list
// prints it): every experiment in id order, with the default parameters
// used by cmd/ampbench and recorded in EXPERIMENTS.md. The ids e14 and
// e17 are retired, not reused: E15-512 and the E14 benchmarks keep
// their names.
func All() []Spec {
	return []Spec{
		{ID: "e1", Short: "MicroPacket type table (slide 4)",
			Run: func(Params) *Table { return E1TypeTable() }},
		{ID: "e2", Short: "wire formats fixed/variable (slides 5–6)",
			Run: func(Params) *Table { return E2WireFormats() }},
		{ID: "e3", Short: "multi-stream segment insertion (slide 7)",
			Defaults: Params{Nodes: 4, FiberM: 50},
			Variants: []Params{{Nodes: 8}, {Nodes: 8, FiberM: 1000}},
			Run:      func(p Params) *Table { return E3MultiStream(p, 400) }},
		{ID: "e4", Short: "all-to-all broadcast losslessness (slide 8)",
			Defaults: Params{Nodes: 16, FiberM: 50},
			Variants: []Params{{Nodes: 8}, {Nodes: 24}},
			Run:      func(p Params) *Table { return E4AllToAll(p, 100) }},
		{ID: "e4a", Short: "offered-load sweep ablation",
			Defaults: Params{Nodes: 8, FiberM: 50},
			Run:      E4aLoadSweep},
		{ID: "e5", Short: "Lamport-counter cache consistency (slide 9)",
			Run: E5Seqlock},
		{ID: "e6", Short: "network semaphores mutual exclusion (slide 10)",
			Defaults: Params{Nodes: 5},
			Run:      func(p Params) *Table { return E6Semaphores(p, 20) }},
		{ID: "e6a", Short: "write-through replication latency (slide 10)",
			Defaults: Params{Nodes: 6},
			Run:      E6aWriteThrough},
		{ID: "e7", Short: "dual/quad redundancy survivability (slides 14–15)",
			Defaults: Params{Nodes: 6},
			Variants: []Params{{Nodes: 10}},
			Run:      E7Redundancy},
		{ID: "e7a", Short: "random link-failure ring salvage",
			Defaults: Params{Nodes: 8, Switches: 4},
			Run:      func(p Params) *Table { return E7aLinkFailures(p, 8, 5) }},
		{ID: "e8", Short: "rostering: two ring-tours, 1–2 ms (slide 16)",
			Run: E8Rostering},
		{ID: "e8a", Short: "detection-latency ablation",
			Run: E8aDetectionSensitivity},
		{ID: "e9", Short: "assimilation & cache refresh (slide 17)",
			Run: E9Assimilation},
		{ID: "e10", Short: "failover: detection, period, no data loss (slides 18–19)",
			Run: E10Failover},
		{ID: "e11", Short: "self-healing vs static network (slides 2, 13, 18)",
			Run: E11SelfHealVsBaseline},
		{ID: "e12", Short: "AmpIP + collectives stack (slides 3, 12)",
			Defaults: Params{Nodes: 8, Switches: 2},
			Variants: []Params{{Nodes: 4}},
			Run:      E12Collectives},
		{ID: "e13", Short: "fabric shapes × fault schedules: heal time, delivered throughput",
			Defaults: Params{Nodes: 6, Switches: 4},
			Variants: []Params{{Nodes: 8}},
			Run:      E13FabricHeal},
		{ID: "e15", Short: "wire v2 scaling past 255 nodes: serial-identical reports beyond the v1 ceiling",
			Defaults: Params{Nodes: 320},
			Run:      E15WireScale},
		{ID: "e16", Short: "sharding is invisible: cut-aware partition, lookahead, serial-identical reports vs shards",
			Defaults: Params{Nodes: 96, Switches: 8},
			Run:      E16ScalingEfficiency},
		{ID: "e18", Short: "one link vs M/D/1: mean wait and busy period against the closed form",
			Run: E18MD1Link},
	}
}

// ByID returns the spec with the given id, or nil.
func ByID(id string) *Spec {
	for _, s := range All() {
		if s.ID == id {
			sc := s
			return &sc
		}
	}
	return nil
}

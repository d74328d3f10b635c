package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/sim"
)

// fabricSchedule is one fault schedule of the E13 grid.
type fabricSchedule struct {
	name       string
	needTrunks bool
	plan       func(nodes int) core.Plan
}

// E13FabricHeal measures what the fabric generalization buys: heal time
// and delivered pub/sub throughput across fabric shapes (the paper's
// uniform segment, dual counter-rotating rings, a trunked switch mesh,
// a sharded multi-ring cluster) crossed with fault schedules (switch
// death, switch blip, trunk cut and re-merge, node crash and reboot).
// The paper's slide-14 topologies can only express the first column;
// the trunked shapes heal hops across surviving rings.
//
// Nodes and Switches size every shape; the seed drives the whole
// simulation.
func E13FabricHeal(p Params) *Table {
	p = p.Merged(Params{Nodes: 6, Switches: 4, FiberM: 50})
	t := &Table{
		ID:     "E13",
		Title:  "heal time and delivered throughput vs fabric shape × fault schedule",
		Header: []string{"fabric", "trunks", "schedule", "heal", "delivered", "gaps", "drops", "healed"},
	}
	shards := 2
	nps, sps := p.Nodes/shards, p.Switches/shards
	if nps < 2 {
		nps = 2
	}
	if sps < 1 {
		sps = 1
	}
	fabrics := []phys.Topology{
		phys.Uniform(p.Nodes, p.Switches, p.FiberM),
		phys.DualRing(p.Nodes, p.FiberM),
		phys.Mesh(p.Nodes, max(p.Switches, 2), p.FiberM),
		phys.Sharded(shards, nps, sps, p.FiberM),
	}
	schedules := []fabricSchedule{
		{"switch-death", false, func(int) core.Plan {
			return core.Plan{core.FailSwitch(5*sim.Millisecond, 0)}
		}},
		{"switch-blip", false, func(int) core.Plan {
			return core.Plan{core.FailSwitch(5*sim.Millisecond, 0), core.RestoreSwitch(15*sim.Millisecond, 0)}
		}},
		{"trunk-cut", true, func(int) core.Plan {
			return core.Plan{core.FailTrunk(5*sim.Millisecond, 0), core.RestoreTrunk(15*sim.Millisecond, 0)}
		}},
		{"node-crash", false, func(nodes int) core.Plan {
			return core.Plan{core.CrashNode(5*sim.Millisecond, nodes-1), core.RebootNode(15*sim.Millisecond, nodes-1)}
		}},
	}

	for _, topo := range fabrics {
		topo := topo
		for _, sched := range schedules {
			if sched.needTrunks && len(topo.Trunks) == 0 {
				continue
			}
			rep, err := core.Scenario{
				Name: fmt.Sprintf("e13-%s-%s", topo.Name, sched.name),
				Opts: core.Options{Fabric: &topo, Seed: p.seed(), Telemetry: p.Telemetry},
				Plan: sched.plan(topo.Nodes),
				Loads: []core.Load{&core.PubSubLoad{
					Publisher: 0, Topic: 1, Every: 50 * sim.Microsecond,
				}},
				For: 25 * sim.Millisecond,
			}.Run()
			if err != nil {
				t.Add(topo.Name, fmt.Sprint(len(topo.Trunks)), sched.name, "ERROR", err.Error(), "", "", "")
				continue
			}
			worst := worstHeal(rep)
			healed := "yes"
			if !rep.Healed {
				healed = "NO"
			}
			t.Add(topo.Name, fmt.Sprint(len(topo.Trunks)), sched.name,
				worst.String(), fmt.Sprint(rep.Loads[0].Delivered),
				fmt.Sprint(rep.Loads[0].Gaps), fmt.Sprint(rep.Drops), healed)
		}
	}
	t.Note("trunked shapes (dualring/mesh/sharded) survive faults the uniform segment cannot express:")
	t.Note("whole-switch loss where no single switch sees every node, and trunk partition with re-merge")
	return t
}

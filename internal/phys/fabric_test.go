package phys

import (
	"math"
	"math/big"
	"runtime"
	"strings"
	"testing"

	"repro/internal/micropacket"
	"repro/internal/sim"
)

func TestTopologyValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo Topology
		want string // substring of the error, "" for valid
	}{
		{"uniform", Uniform(6, 4, 50), ""},
		{"dualring", DualRing(6, 50), ""},
		{"mesh", Mesh(8, 4, 50), ""},
		{"sharded", Sharded(2, 3, 2, 50), ""},
		{"no nodes", Uniform(0, 4, 50), "at least one node"},
		{"too many switches", Uniform(4, 9, 50), "at most 8"},
		{"trunk out of range", Topology{Name: "x", Nodes: 2, Switches: 2, Trunks: []TrunkSpec{{A: 0, B: 5}}}, "out of range"},
		{"trunk self-loop", Topology{Name: "x", Nodes: 2, Switches: 2, Trunks: []TrunkSpec{{A: 1, B: 1}}}, "self-loop"},
		{"negative fiber", Uniform(6, 4, -10), "negative Topology.FiberM -10"},
		{"negative trunk fiber", Topology{Name: "x", Nodes: 2, Switches: 2, Trunks: []TrunkSpec{{A: 0, B: 1, FiberM: -1}}}, "negative TrunkSpec.FiberM -1"},
		{"NaN fiber", Uniform(6, 4, math.NaN()), "out-of-range Topology.FiberM NaN"},
		{"fiber past sim.Time", Uniform(6, 4, 1e30), "out-of-range Topology.FiberM 1e+30"},
		{"fiber at the bound", Uniform(6, 4, MaxFiberM), "out-of-range Topology.FiberM"},
		{"longest fiber", Uniform(6, 4, math.Nextafter(MaxFiberM, 0)), ""},
		{"infinite trunk fiber", Topology{Name: "x", Nodes: 2, Switches: 2, Trunks: []TrunkSpec{{A: 0, B: 1, FiberM: math.Inf(1)}}}, "out-of-range TrunkSpec.FiberM +Inf"},
		{"orphan node", Topology{Name: "x", Nodes: 2, Switches: 2,
			Attached: func(n, s int) bool { return n == 0 }}, "no switch attachment"},
	} {
		err := tc.topo.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if p := PropTime(math.Nextafter(MaxFiberM, 0)); p <= 0 {
		t.Errorf("PropTime of the longest valid fiber = %v, want it to fit in sim.Time", p)
	}
}

// TestFabricByName pins the budget contract: a named shape either
// realizes the requested node/switch budget exactly or errors — it
// never silently drops or resizes.
func TestFabricByName(t *testing.T) {
	for _, tc := range []struct {
		name            string
		nodes, switches int
		wantErr         string
		wantNodes       int
		wantSwitches    int
	}{
		{"uniform", 6, 4, "", 6, 4},
		{"", 6, 4, "", 6, 4},
		{"dualring", 6, 4, "", 6, 2}, // the shape fixes switches at 2
		{"mesh", 8, 4, "", 8, 4},
		{"sharded", 8, 4, "", 8, 4},
		{"sharded", 9, 4, "does not divide evenly", 0, 0},
		{"sharded", 8, 3, "does not divide evenly", 0, 0},
		{"mesh", 8, 1, "at least 2 switches", 0, 0},
		{"mesh", 8, 9, "at most 8", 0, 0},
		{"banana", 6, 4, "unknown fabric", 0, 0},
	} {
		topo, err := FabricByName(tc.name, tc.nodes, tc.switches, 50)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("FabricByName(%q, %d, %d): error %v, want substring %q",
					tc.name, tc.nodes, tc.switches, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("FabricByName(%q, %d, %d): %v", tc.name, tc.nodes, tc.switches, err)
			continue
		}
		if topo.Nodes != tc.wantNodes || topo.Switches != tc.wantSwitches {
			t.Errorf("FabricByName(%q, %d, %d) = %d nodes × %d switches, want %d × %d",
				tc.name, tc.nodes, tc.switches, topo.Nodes, topo.Switches, tc.wantNodes, tc.wantSwitches)
		}
	}
}

// allocatedBytes returns the bytes fn allocates, from the heap's
// running total.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFabricByNameRefusesOversizeBeforeBuilding: a switch budget past
// MaxSwitches is refused before Mesh builds its S(S-1)/2 trunk specs
// (about 1 GB for 4 096 switches when the check came last).
func TestFabricByNameRefusesOversizeBeforeBuilding(t *testing.T) {
	var err error
	n := allocatedBytes(func() { _, err = FabricByName("mesh", 8, 4096, 50) })
	if err == nil || !strings.Contains(err.Error(), "at most 8") {
		t.Fatalf("FabricByName(mesh, 8, 4096): error %v, want the MaxSwitches refusal", err)
	}
	if n > 64<<10 {
		t.Fatalf("FabricByName(mesh, 8, 4096) allocated %d bytes before refusing, want <= 64 KiB", n)
	}
}

// FuzzFabricByName: any shape string and budget give a topology that
// Validate accepts with the budget realized, or an error naming the
// phys package; never a panic, and never an allocation that grows with
// an out-of-range size. Only the error text grows with the name, which
// it quotes.
func FuzzFabricByName(f *testing.F) {
	f.Add("uniform", 6, 4, 50.0)
	f.Add("sharded:0", 8, 4, 50.0)
	f.Add("sharded:-1", 8, 4, 50.0)
	f.Add("sharded:4", 8, 4, 50.0)
	f.Add("mesh", 8, 1, 50.0)
	f.Add("mesh", 8, 9, 50.0)
	f.Add("mesh", 8, 4096, 50.0)
	f.Add("dualring", 0, 2, 50.0)
	f.Add("uniform", 6, 4, math.NaN())
	f.Add("uniform:2", 70000, -1, 1e30)
	f.Fuzz(func(t *testing.T, name string, nodes, switches int, fiberM float64) {
		var topo Topology
		var err error
		n := allocatedBytes(func() { topo, err = FabricByName(name, nodes, switches, fiberM) })
		if n > 64<<10+uint64(8*len(name)) {
			t.Fatalf("FabricByName(%q, %d, %d, %v) allocated %d bytes", name, nodes, switches, fiberM, n)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "phys: ") {
				t.Fatalf("FabricByName(%q, %d, %d, %v): unnamed error %v", name, nodes, switches, fiberM, err)
			}
			return
		}
		if verr := topo.Validate(); verr != nil {
			t.Fatalf("FabricByName(%q, %d, %d, %v) returned an invalid topology: %v", name, nodes, switches, fiberM, verr)
		}
		if topo.Nodes != nodes || (topo.Switches != switches && topo.Name != "dualring") {
			t.Fatalf("FabricByName(%q, %d, %d, %v) = %d nodes × %d switches", name, nodes, switches, fiberM, topo.Nodes, topo.Switches)
		}
	})
}

// TestBuildFabricTrunks checks trunk wiring: ports beyond the node
// ports, live links, and status watchers firing on fail/restore after
// the detection latency.
func TestBuildFabricTrunks(t *testing.T) {
	net := NewNet(sim.NewKernel(1))
	topo := Sharded(2, 3, 2, 50)
	c, err := BuildFabric(net, topo)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTrunks() != 2 || c.NumNodes() != 6 || c.NumSwitches() != 4 {
		t.Fatalf("sharded(2,3,2) = %d nodes, %d switches, %d trunks", c.NumNodes(), c.NumSwitches(), c.NumTrunks())
	}
	for _, tr := range c.Trunks {
		// Every switch has one port per node, before its trunk ports.
		if tr.PortA < topo.Nodes || tr.PortB < topo.Nodes {
			t.Fatalf("trunk %d wired to a node port (%d/%d)", tr.Index, tr.PortA, tr.PortB)
		}
		if !tr.Link.Up() {
			t.Fatalf("trunk %d built dark", tr.Index)
		}
	}
	// Sparse attachment: node 0 (shard 0) has no port to switch 2.
	if c.HasLink(0, 2) || !c.HasLink(0, 0) {
		t.Fatal("sharded attachment wrong for node 0")
	}
	// The watcher is told that a trunk changed; what it sees is trunk
	// 1's light as the fabric reports it when the change is sensed.
	var events []bool
	c.WatchTrunks(net.K, func() { events = append(events, c.TrunkUp(1)) })
	c.FailTrunk(1)
	net.K.RunUntil(net.K.Now() + 2*DefaultDetect)
	if c.TrunkUp(1) || len(events) != 1 || events[0] {
		t.Fatalf("trunk fail not observed: up=%v events=%v", c.TrunkUp(1), events)
	}
	c.RestoreTrunk(1)
	net.K.RunUntil(net.K.Now() + 2*DefaultDetect)
	if !c.TrunkUp(1) || len(events) != 2 || !events[1] {
		t.Fatalf("trunk restore not observed: up=%v events=%v", c.TrunkUp(1), events)
	}
	if tr := c.TrunkBetween(0, 2); tr == nil || tr.Index != 0 {
		t.Fatalf("TrunkBetween(0,2) = %v, want trunk 0", tr)
	}
	if tr := c.TrunkBetween(0, 3); tr != nil {
		t.Fatalf("TrunkBetween(0,3) = %v, want nil", tr)
	}
}

// TestShardedFabricBuildsAttachedPortsOnly: a switch makes port n when
// node n attaches, so a sparse fabric holds O(attached) switch ports,
// not one per node id per switch, and failing, restoring and flooding
// through a switch skip its empty slots.
func TestShardedFabricBuildsAttachedPortsOnly(t *testing.T) {
	net := NewNet(sim.NewKernel(1))
	topo := Sharded(8, 16, 1, 50)
	c, err := BuildFabric(net, topo)
	if err != nil {
		t.Fatal(err)
	}
	for s, sw := range c.Switches {
		nodePorts := 0
		for n := 0; n < topo.Nodes; n++ {
			if sw.ports[n] == nil {
				continue
			}
			nodePorts++
			if !topo.IsAttached(n, s) {
				t.Fatalf("sw%d made port %d for unattached node %d", s, n, n)
			}
		}
		if nodePorts != 16 || len(sw.ports) != topo.Nodes+2 {
			t.Fatalf("sw%d: %d node ports and %d trunk ends, want 16 and 2", s, nodePorts, len(sw.ports)-topo.Nodes)
		}
	}
	// 128 switch node ports, 16 trunk ends, 128 node-side ports; a
	// switch with a port per node id made 1 168.
	if got := len(net.ports); got != 272 {
		t.Fatalf("Net holds %d ports, want 272", got)
	}

	sw := c.Switches[3]
	var lit []*Link
	for _, p := range sw.ports {
		if p != nil {
			lit = append(lit, p.link)
		}
	}
	sw.Fail()
	for i, l := range lit {
		if l.Up() {
			t.Fatalf("link %d of a failed switch still lit", i)
		}
	}
	sw.Restore()
	for i, l := range lit {
		if !l.Up() {
			t.Fatalf("link %d of a restored switch still dark", i)
		}
	}
	net.K.RunUntil(net.K.Now() + 2*DefaultDetect)

	live := 0
	for _, p := range sw.ports {
		if p != nil && p.Up() {
			live++
		}
	}
	node := 3 * 16 // the first node attached to sw3
	c.NodePorts[node][3].SendPriority(net.NewFrame(micropacket.NewRostering(micropacket.NodeID(node), 1, [8]byte{})))
	net.K.Run()
	if live != 18 || sw.Flooded != uint64(live-1) {
		t.Fatalf("flood through sw3 (%d live ports): Flooded %d, want %d", live, sw.Flooded, live-1)
	}
}

// TestPropTimeUnfused: a link's delay rounds the product before it adds
// the half, as IEEE arithmetic does step by step, on every architecture.
// The reference is computed in math/big at float64 precision, so no
// compiler can fuse it; the fibers are the builders' and every quarter
// metre up to 10 km. The log says how many of them an FMA — what a
// fusing compiler would emit for the unconverted expression — rounds
// differently.
func TestPropTimeUnfused(t *testing.T) {
	lengths := []float64{8, 10, 50, 200, 1000, 5000}
	for q := 0; q <= 40000; q++ {
		lengths = append(lengths, float64(q)/4)
	}
	step := func(op func(z, x, y *big.Float) *big.Float, x, y float64) float64 {
		f, _ := op(new(big.Float).SetPrec(53), big.NewFloat(x), big.NewFloat(y)).Float64()
		return f
	}
	fused := 0
	for _, m := range lengths {
		want := sim.Time(step((*big.Float).Add, step((*big.Float).Mul, m, NsPerMeter), 0.5))
		if got := PropTime(m); got != want {
			t.Fatalf("PropTime(%v) = %d, want %d (the rounded product plus a half)", m, got, want)
		}
		if sim.Time(math.FMA(m, NsPerMeter, 0.5)) != want {
			fused++
		}
	}
	t.Logf("an FMA rounds %d of %d fiber lengths differently", fused, len(lengths))
}
